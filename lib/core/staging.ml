(* Scratch-pad staging (Table II, fourth column): the scope discipline
   the spm and farmem back-ends share.  Entering a scope stages the
   object into the tile's scratch-pad, every access inside the scope hits
   the scratch-pad at local-memory speed, and leaving an exclusive scope
   publishes the staged bytes back to where the canonical version lives:

     entry_x   lock; copy in
     exit_x    publish; free the SPM space; unlock
     entry_ro  copy in, locking around the copy if the object is larger
               than an atomic word
     exit_ro   discard the SPM copy
     flush     publish while staying in the scope
     fence     compiler barrier only

   The back-end supplies the rest as a [Store]: its name, where the
   canonical version lives and what moving it costs ([copy_in],
   [publish]), plus its own [alloc], [peek_u32] and [poke_u32].

   The paper notes the dual-address problem (main memory vs SPM
   address); here the [read]/[write] indirection plays the role of the
   C++ ScopeRO/ScopeX cast operators of Fig. 10 and hides it
   completely. *)

open Pmc_sim

module type Store = sig
  val name : string
  (** The back-end's name; capitalized, it prefixes the op of every
      scope error ("Spm.exit_x"). *)

  val scope_kind : string
  (** What the missing-scope error calls the scope ("SPM"). *)

  val copy_in : Machine.t -> Shared.t -> spm_off:int -> unit
  (** Copy the canonical version into this core's scratch-pad at
      [spm_off] and charge the transfer. *)

  val publish : Machine.t -> Shared.t -> spm_off:int -> unit
  (** Make the staged bytes at [spm_off] the canonical version. *)
end

module Make (S : Store) = struct
  type scope = { spm_off : int; mark : int }

  type t = {
    m : Machine.t;
    (* per-core map: object id -> active SPM staging *)
    staged : (int, scope) Hashtbl.t array;
    (* SPM stack position when no scope is active, for bulk reclamation *)
    base_sp : int array;
  }

  let name = S.name

  let create m =
    let cores = (Machine.config m).Config.cores in
    {
      m;
      staged = Array.init cores (fun _ -> Hashtbl.create 8);
      base_sp = Array.init cores (fun core -> Machine.spm_mark m ~core);
    }

  let machine t = t.m

  let scope_error t (o : Shared.t) ~op =
    Pmc_error.raise_error ~core:(Machine.core_id t.m) ~obj:o.Shared.name
      ~op:(String.capitalize_ascii S.name ^ "." ^ op)
      "no active %s scope for this object on this core" S.scope_kind

  (* This core's staging of [o]. *)
  let find t (o : Shared.t) ~op =
    match Hashtbl.find_opt t.staged.(Machine.core_id t.m) o.Shared.id with
    | Some s -> s
    | None -> scope_error t o ~op

  let stage t (o : Shared.t) =
    let core = Machine.core_id t.m in
    let mark = Machine.spm_mark t.m ~core in
    let spm_off = Machine.spm_alloc t.m ~core ~bytes:o.Shared.size in
    Hashtbl.replace t.staged.(core) o.Shared.id { spm_off; mark };
    S.copy_in t.m o ~spm_off

  (* Scratch-pad space is stack-allocated.  Scopes normally exit in LIFO
     order (the RAII style of Fig. 10); a non-LIFO exit leaves a hole that
     is reclaimed when the core's last scope closes. *)
  let unstage t (o : Shared.t) =
    let core = Machine.core_id t.m in
    let s = find t o ~op:"exit" in
    Hashtbl.remove t.staged.(core) o.Shared.id;
    let top = (s.spm_off + o.Shared.size + 3) / 4 * 4 in
    if Machine.spm_mark t.m ~core = top then
      Machine.spm_release t.m ~core s.mark;
    if Hashtbl.length t.staged.(core) = 0 then
      Machine.spm_release t.m ~core t.base_sp.(core)

  let entry_x t (o : Shared.t) =
    Pmc_lock.Dlock.acquire o.Shared.lock;
    stage t o

  let exit_x t (o : Shared.t) =
    S.publish t.m o ~spm_off:(find t o ~op:"exit_x").spm_off;
    unstage t o;
    Pmc_lock.Dlock.release o.Shared.lock

  let entry_ro t (o : Shared.t) =
    if Shared.is_atomic_sized o then stage t o
    else begin
      (* lock only around the copy: a publication holds the exclusive
         lock to its end, so a locked copy is never torn *)
      Pmc_lock.Dlock.acquire_ro o.Shared.lock;
      stage t o;
      Pmc_lock.Dlock.release_ro o.Shared.lock
    end

  let exit_ro t (o : Shared.t) = unstage t o
  let fence _t = ()

  let flush t (o : Shared.t) =
    S.publish t.m o ~spm_off:(find t o ~op:"flush").spm_off

  let spm_addr t (o : Shared.t) off =
    Machine.local_addr t.m ~tile:(Machine.core_id t.m)
      ~off:((find t o ~op:"access").spm_off + off)

  let read t (o : Shared.t) ~width off =
    Machine.load t.m ~shared:true ~width (spm_addr t o off)

  let write t (o : Shared.t) ~width off v =
    Machine.store t.m ~shared:true ~width (spm_addr t o off) v
end
