(* The unified trace event: one virtually-timestamped record per thing the
   runtime did, merging two sources into one timeline —

     - the annotation-level events of [Pmc.Api] (entry/exit/fence/flush
       and the accesses between them, each carrying its width and byte
       offset), and
     - the micro-architectural events of [Pmc_sim.Probe] (posted NoC
       writes, cache flush/invalidate ranges, distributed-lock handovers,
       task lifetimes, faults), carried as the probe declares them.

   Events carry a plain-data object descriptor (id, name, size) instead of
   the live [Pmc.Shared.t] handle so a captured trace is self-contained:
   it can be exported, replayed through the formal model or fed to the
   race detector long after the machine is gone. *)

type obj = { id : int; name : string; words : int; bytes : int }

type annot = Entry_x | Exit_x | Entry_ro | Exit_ro | Fence | Flush

type kind =
  | Annot of { ann : annot; obj : obj option }
      (* [obj = None] for fences, which span all locations *)
  | Read of { obj : obj; width : int; byte : int; value : int }
  | Write of { obj : obj; width : int; byte : int; value : int }
  | Init of { obj : obj; word : int; value : int32 }
      (* untimed initialization write (poke), before the run proper *)
  | Probe of Pmc_sim.Probe.event

type t = {
  seq : int;   (* global emission index: issue order, survives ring drops *)
  time : int;  (* virtual time (cycles) at emission *)
  core : int;
  kind : kind;
}

let obj_of_shared (o : Pmc.Shared.t) : obj =
  { id = o.Pmc.Shared.id; name = o.Pmc.Shared.name;
    words = Pmc.Shared.words o; bytes = o.Pmc.Shared.size }

let annot_name = function
  | Entry_x -> "entry_x"
  | Exit_x -> "exit_x"
  | Entry_ro -> "entry_ro"
  | Exit_ro -> "exit_ro"
  | Fence -> "fence"
  | Flush -> "flush"

(* A word access prints its word index, a byte access its byte offset. *)
let pp_access ppf ~op ~sep obj width byte value =
  if width = 4 then
    Fmt.pf ppf "%s %s#%d[%d] %s %d" op obj.name obj.id (byte / 4) sep value
  else Fmt.pf ppf "%s8 %s#%d.%d %s %d" op obj.name obj.id byte sep value

let pp_kind ppf = function
  | Annot { ann; obj = None } -> Fmt.pf ppf "%s" (annot_name ann)
  | Annot { ann; obj = Some o } ->
      Fmt.pf ppf "%s(%s#%d)" (annot_name ann) o.name o.id
  | Read { obj; width; byte; value } ->
      pp_access ppf ~op:"read" ~sep:"=" obj width byte value
  | Write { obj; width; byte; value } ->
      pp_access ppf ~op:"write" ~sep:":=" obj width byte value
  | Init { obj; word; value } ->
      Fmt.pf ppf "init %s#%d[%d] := %ld" obj.name obj.id word value
  | Probe p -> Pmc_sim.Probe.pp ppf p

let pp ppf (e : t) =
  Fmt.pf ppf "@[t=%-8d c%-3d %a@]" e.time e.core pp_kind e.kind
