(* Instrumentation hook of the simulator: the machine, NoC, engine and
   lock layers publish the micro-architectural events a tracing tool needs
   (posted NoC writes, cache flush/invalidate ranges, lock handovers, task
   lifetimes, injected faults) without the simulator depending on any
   tracing library.

   One sink per engine; emission is a single option check when tracing is
   off, so instrumented hot paths stay cheap.  The consumer (the
   [pmc_trace] library) subscribes via [set] and records each event as it
   is, next to the annotation-level events of [Pmc.Api]; which core owns
   an event and how it prints are therefore declared here, once. *)

type lock_op = Acquire | Release | Acquire_ro | Release_ro
type maint_op = Wb_inval | Inval
type task_op = Spawn | Finish

(* Injected faults and the resilient protocol's reactions to them, so a
   chaos run's trace tells the full story: what was injected, what the
   transport did about it, and where service degraded. *)
type fault =
  | F_noc_drop of { src : int; dst : int; seq : int; attempt : int }
  | F_noc_corrupt of { src : int; dst : int; seq : int; attempt : int }
  | F_noc_delay of { src : int; dst : int; seq : int; cycles : int }
  | F_noc_retry of { src : int; dst : int; seq : int; attempt : int; at : int }
  | F_link_dead of { src : int; dst : int }
  | F_noc_degraded of { src : int; dst : int; seq : int }
  | F_sdram_retry of { core : int; attempt : int }
  | F_tile_stall of { core : int; cycles : int }
  | F_lock_timeout of { core : int; lock : int; waited : int }
  | F_power_cut of { cycle : int }

type event =
  | Noc_post of {
      src : int;
      dst : int;
      off : int;       (* destination local-memory offset *)
      bytes : int;
      arrival : int;   (* virtual time the write lands at [dst] *)
    }
  | Cache_maint of {
      core : int;
      op : maint_op;
      addr : int;
      len : int;
      lines_touched : int;
      lines_written_back : int;
    }
  | Lock of {
      core : int;
      lock : int;                (* Dlock id *)
      op : lock_op;
      transferred : bool;        (* handover arrived from another tile *)
    }
  | Task of { core : int; op : task_op }
  | Fault of fault

type sink = time:int -> event -> unit

(* [enabled] mirrors [sink <> None] as a flat flag: emitting call sites
   test it *before* constructing an event record, so an untraced run
   pays one load-and-branch — not one allocation — per would-be event. *)
type t = { mutable sink : sink option; mutable enabled : bool }

let create () = { sink = None; enabled = false }

let set t sink =
  t.sink <- sink;
  t.enabled <- (match sink with None -> false | Some _ -> true)

let[@inline] active t = t.enabled

let emit t ~time ev =
  match t.sink with None -> () | Some f -> f ~time ev

(* ---------------- reading events ---------------- *)

let core = function
  | Noc_post { src; _ } -> src
  | Cache_maint { core; _ } | Lock { core; _ } | Task { core; _ } -> core
  | Fault
      ( F_noc_drop { src; _ } | F_noc_corrupt { src; _ }
      | F_noc_delay { src; _ } | F_noc_retry { src; _ }
      | F_link_dead { src; _ } | F_noc_degraded { src; _ } ) ->
      src
  | Fault
      ( F_sdram_retry { core; _ } | F_tile_stall { core; _ }
      | F_lock_timeout { core; _ } ) ->
      core
  | Fault (F_power_cut _) -> 0

let lock_op_name = function
  | Acquire -> "acquire"
  | Release -> "release"
  | Acquire_ro -> "acquire_ro"
  | Release_ro -> "release_ro"

let maint_op_name = function Wb_inval -> "wb_inval" | Inval -> "inval"
let task_op_name = function Spawn -> "spawn" | Finish -> "finish"

let fault_name = function
  | F_noc_drop _ -> "noc_drop"
  | F_noc_corrupt _ -> "noc_corrupt"
  | F_noc_delay _ -> "noc_delay"
  | F_noc_retry _ -> "noc_retry"
  | F_link_dead _ -> "link_dead"
  | F_noc_degraded _ -> "noc_degraded"
  | F_sdram_retry _ -> "sdram_retry"
  | F_tile_stall _ -> "tile_stall"
  | F_lock_timeout _ -> "lock_timeout"
  | F_power_cut _ -> "power_cut"

let fault_detail = function
  | F_noc_drop { src; dst; seq; attempt }
  | F_noc_corrupt { src; dst; seq; attempt } ->
      Printf.sprintf "%d>%d seq=%d attempt=%d" src dst seq attempt
  | F_noc_delay { src; dst; seq; cycles } ->
      Printf.sprintf "%d>%d seq=%d +%d" src dst seq cycles
  | F_noc_retry { src; dst; seq; attempt; at } ->
      Printf.sprintf "%d>%d seq=%d attempt=%d at=%d" src dst seq attempt at
  | F_link_dead { src; dst } -> Printf.sprintf "%d>%d" src dst
  | F_noc_degraded { src; dst; seq } -> Printf.sprintf "%d>%d seq=%d" src dst seq
  | F_sdram_retry { attempt; _ } -> Printf.sprintf "attempt=%d" attempt
  | F_tile_stall { cycles; _ } -> Printf.sprintf "+%d" cycles
  | F_lock_timeout { lock; waited; _ } ->
      Printf.sprintf "lock#%d waited=%d" lock waited
  | F_power_cut { cycle } -> Printf.sprintf "at=%d" cycle

let pp ppf = function
  | Noc_post { src; dst; bytes; arrival; _ } ->
      Fmt.pf ppf "noc %d->%d %dB arr=%d" src dst bytes arrival
  | Cache_maint { op; addr; len; lines_written_back; _ } ->
      Fmt.pf ppf "%s [%#x,+%d) wb=%d" (maint_op_name op) addr len
        lines_written_back
  | Lock { lock; op; transferred; _ } ->
      Fmt.pf ppf "lock#%d %s%s" lock (lock_op_name op)
        (if transferred then " (transfer)" else "")
  | Task { op; _ } -> Fmt.pf ppf "task %s" (task_op_name op)
  | Fault f -> Fmt.pf ppf "fault %s %s" (fault_name f) (fault_detail f)
