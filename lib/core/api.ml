(* The PMC annotation API (Section V-A), independent of the memory
   architecture underneath.  Applications are written once against this
   module; the back-end chosen at [create] time re-targets them to
   software cache coherency, distributed shared memory, scratch-pads, or
   the reference architectures — "porting applications to hardware with
   another memory model becomes just a compiler setting".

   The API enforces the source-code discipline the paper requires:

     - every read or write of a shared object happens inside an entry/exit
       pair ("for symmetry reasons, all reads and writes should be
       wrapped");
     - writes require exclusive access (entry_x);
     - flush is "only allowed ... inside an entry_x()/exit_x() pair";
     - entries and exits pair up, per core and per object.

   Violations raise [Discipline_error] — this is the run-time equivalent
   of the static checking done by [Pmc_compile.Check].  [unsafe] API
   instances skip the checks; the broken-by-design demonstrations use
   them.

   An optional [trace] hook receives every annotation and access; the
   integration tests feed these traces to [Pmc_model.History] to verify
   that whatever a back-end's timing does, the observable behaviour stays
   explainable by the PMC model. *)

open Pmc_sim

exception Discipline_error of string

type mode = X | Ro

type event =
  | Ev_entry of mode * Shared.t
  | Ev_exit of mode * Shared.t
  | Ev_fence
  | Ev_flush of Shared.t
  | Ev_read of Shared.t * int * int32
  | Ev_write of Shared.t * int * int32
  | Ev_read8 of Shared.t * int * int
  | Ev_write8 of Shared.t * int * int
  | Ev_init of Shared.t * int * int32

type t = {
  backend : Backend_sig.backend;
  machine : Machine.t;
  check : bool;
  (* per core: innermost-last stack of (object id, mode) *)
  scopes : (int * mode) list array;
  mutable trace : (core:int -> event -> unit) option;
}

let create ?(check = true) (backend : Backend_sig.backend) : t =
  let (Backend_sig.B ((module B), b)) = backend in
  {
    backend;
    machine = B.machine b;
    check;
    scopes = Array.make (Machine.config (B.machine b)).Config.cores [];
    trace = None;
  }

let of_backend (type a) (module B : Backend_sig.S with type t = a) (b : a) =
  create (Backend_sig.B ((module B), b))

let machine t = t.machine
let backend_name t =
  let (Backend_sig.B ((module B), _)) = t.backend in
  B.name

let set_trace t f = t.trace <- f

let emit t ev =
  match t.trace with
  | None -> ()
  | Some f -> f ~core:(Machine.core_id t.machine) ev

let fail fmt = Fmt.kstr (fun s -> raise (Discipline_error s)) fmt

let scope_of t (o : Shared.t) =
  let core = Machine.core_id t.machine in
  List.assoc_opt o.Shared.id t.scopes.(core)

let push_scope t (o : Shared.t) mode =
  let core = Machine.core_id t.machine in
  t.scopes.(core) <- (o.Shared.id, mode) :: t.scopes.(core)

let pop_scope t (o : Shared.t) mode =
  let core = Machine.core_id t.machine in
  match t.scopes.(core) with
  | (id, m) :: rest when id = o.Shared.id && m = mode ->
      t.scopes.(core) <- rest
  | (id, _) :: _ ->
      fail "exit of %a while object #%d is the innermost scope (exits must nest)"
        Shared.pp o id
  | [] -> fail "exit of %a with no open scope" Shared.pp o

(* ---------------- allocation ---------------- *)

let alloc t ~name ~bytes : Shared.t =
  if bytes <= 0 then invalid_arg "Api.alloc: size must be positive";
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.alloc b ~name ~bytes

(* Allocate an array of [words] 32-bit words. *)
let alloc_words t ~name ~words = alloc t ~name ~bytes:(4 * words)

(* ---------------- annotations ---------------- *)

let entry_x t (o : Shared.t) =
  if t.check then begin
    match scope_of t o with
    | Some X -> fail "entry_x of %a: already held exclusively" Shared.pp o
    | Some Ro -> fail "entry_x of %a: cannot upgrade read-only access" Shared.pp o
    | None -> ()
  end;
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.entry_x b o;
  push_scope t o X;
  if t.trace <> None then emit t (Ev_entry (X, o))

let exit_x t (o : Shared.t) =
  if t.check then pop_scope t o X
  else begin
    let core = Machine.core_id t.machine in
    t.scopes.(core) <-
      List.filter (fun (id, _) -> id <> o.Shared.id) t.scopes.(core)
  end;
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.exit_x b o;
  if t.trace <> None then emit t (Ev_exit (X, o))

let entry_ro t (o : Shared.t) =
  if t.check then begin
    match scope_of t o with
    | Some _ -> fail "entry_ro of %a: already in scope" Shared.pp o
    | None -> ()
  end;
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.entry_ro b o;
  push_scope t o Ro;
  if t.trace <> None then emit t (Ev_entry (Ro, o))

let exit_ro t (o : Shared.t) =
  if t.check then pop_scope t o Ro
  else begin
    let core = Machine.core_id t.machine in
    t.scopes.(core) <-
      List.filter (fun (id, _) -> id <> o.Shared.id) t.scopes.(core)
  end;
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.exit_ro b o;
  if t.trace <> None then emit t (Ev_exit (Ro, o))

let fence t =
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.fence b;
  emit t Ev_fence

let flush t (o : Shared.t) =
  if t.check then begin
    match scope_of t o with
    | Some X -> ()
    | Some Ro ->
        fail "flush of %a inside read-only scope (needs entry_x)" Shared.pp o
    | None -> fail "flush of %a outside any scope" Shared.pp o
  end;
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.flush b o;
  if t.trace <> None then emit t (Ev_flush o)

(* ---------------- accesses ---------------- *)

let check_word (o : Shared.t) word =
  if word < 0 || word >= Shared.words o then
    fail "word %d out of bounds for %a" word Shared.pp o

(* Sign-extend the unsigned 32-bit pattern [x] to the int an
   [Int32.to_int] round trip would produce. *)
let[@inline] sext32 x = (x lsl 31) asr 31

(* The unboxed primitives: the word travels as a plain [int] end to end
   (API -> back-end -> machine -> cache -> memory); an [int32] is only
   constructed at the boxed [get]/[set] wrappers and for trace events. *)
let get_raw t (o : Shared.t) word : int =
  check_word o word;
  if t.check && scope_of t o = None then
    fail "read of %a outside any entry/exit pair" Shared.pp o;
  let (Backend_sig.B ((module B), b)) = t.backend in
  let v = B.read_u32_int b o word in
  if t.trace <> None then emit t (Ev_read (o, word, Int32.of_int v));
  v

let set_raw t (o : Shared.t) word (v : int) =
  check_word o word;
  if t.check && scope_of t o <> Some X then
    fail "write of %a outside an exclusive entry_x/exit_x pair" Shared.pp o;
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.write_u32_int b o word v;
  if t.trace <> None then emit t (Ev_write (o, word, Int32.of_int v))

let get t o word : int32 = Int32.of_int (get_raw t o word)
let set t o word (v : int32) = set_raw t o word (Int32.to_int v)

(* Byte accesses — the truly indivisible unit of the model (Sec. IV-A). *)
let check_byte (o : Shared.t) i =
  if i < 0 || i >= o.Shared.size then
    fail "byte %d out of bounds for %a" i Shared.pp o

let get8 t (o : Shared.t) i : int =
  check_byte o i;
  if t.check && scope_of t o = None then
    fail "read of %a outside any entry/exit pair" Shared.pp o;
  let (Backend_sig.B ((module B), b)) = t.backend in
  let v = B.read_u8 b o i in
  if t.trace <> None then emit t (Ev_read8 (o, i, v));
  v

let set8 t (o : Shared.t) i (v : int) =
  check_byte o i;
  if t.check && scope_of t o <> Some X then
    fail "write of %a outside an exclusive entry_x/exit_x pair" Shared.pp o;
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.write_u8 b o i v;
  if t.trace <> None then emit t (Ev_write8 (o, i, v))

(* Integer convenience wrappers — allocation-free: they ride the
   unboxed primitives directly. *)
let get_int t o word = sext32 (get_raw t o word)
let set_int t o word v = set_raw t o word v

(* Untimed read of the canonical version — result collection after the
   simulation has finished (no scope or timing rules apply). *)
let peek t (o : Shared.t) word : int32 =
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.peek_u32 b o word

let peek_int t o word = Int32.to_int (peek t o word)

(* Untimed initialization write, visible on every core — for loading input
   data before the simulation starts. *)
let poke t (o : Shared.t) word (v : int32) =
  let (Backend_sig.B ((module B), b)) = t.backend in
  B.poke_u32 b o word v;
  (* poke runs on the host, usually outside any task, so there is no
     issuing core — report it as core -1 *)
  match t.trace with None -> () | Some f -> f ~core:(-1) (Ev_init (o, word, v))

let poke_int t o word v = poke t o word (Int32.of_int v)

(* ---------------- scoped helpers (the ScopeX/ScopeRO of Fig. 10) ------ *)

let with_x t o f =
  entry_x t o;
  Fun.protect ~finally:(fun () -> exit_x t o) (fun () -> f ())

let with_ro t o f =
  entry_ro t o;
  Fun.protect ~finally:(fun () -> exit_ro t o) (fun () -> f ())

(* Spin until [pred (get o word)] holds, polling through a read-only
   scope — the canonical flag-waiting loop of Fig. 6.  Between polls the
   core backs off (the paper's sleep()), up to [max_backoff] cycles, so a
   herd of pollers does not saturate the memory port.  Under the DSM
   back-end every poll reads the core's own replica, which disturbs no
   other tile (Section VI-B observes DSM's polling advantage), so with
   [Config.batched] the default cap tightens to 64 cycles. *)
let poll_until_int ?max_backoff t (o : Shared.t) word pred : int =
  let max_backoff =
    match max_backoff with
    | Some b -> b
    | None ->
        let (Backend_sig.B ((module B), _)) = t.backend in
        if B.name = "dsm" && (Machine.config t.machine).Config.batched then
          64
        else 512
  in
  check_word o word;
  (* the loop body satisfies the discipline by construction (entry_ro;
     read; exit_ro on the same object), so the scope checks reduce to
     this single entry check *)
  if t.check && scope_of t o <> None then
    fail "poll_until of %a: already in scope" Shared.pp o;
  let (Backend_sig.B ((module B), b)) = t.backend in
  let traced = t.trace <> None in
  let rec loop backoff =
    (* the polling loop is the simulator's hottest client code: with no
       trace sink attached it calls the back-end hooks directly — same
       timed operations in the same order, but no per-poll scope push/pop
       or event construction *)
    let v =
      if traced then begin
        entry_ro t o;
        match get_raw t o word with
        | v -> exit_ro t o; v
        | exception e -> exit_ro t o; raise e
      end
      else begin
        B.entry_ro b o;
        match B.read_u32_int b o word with
        | v -> B.exit_ro b o; v
        | exception e -> B.exit_ro b o; raise e
      end
    in
    let v = sext32 v in
    if pred v then v
    else begin
      Engine.idle (Machine.engine t.machine) backoff;
      loop (min max_backoff (backoff * 2))
    end
  in
  loop 8

let poll_until ?max_backoff t (o : Shared.t) word pred : int32 =
  Int32.of_int
    (poll_until_int ?max_backoff t o word (fun v -> pred (Int32.of_int v)))
