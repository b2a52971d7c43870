(* Deterministic fault-injection plane.

   Every fault decision is a pure hash of (fault_seed, site key): the same
   seed always produces the same fault schedule regardless of call order,
   so chaos runs are exactly reproducible and a captured trace can be
   re-created from its seed alone.  The plane never touches the workload
   PRNG ([Config.seed]), so arming it perturbs only what it injects.

   When every probability in the config is zero the plane is [enabled =
   false] and every hook is a single boolean test — the fault-free
   simulator takes bit-identical code paths (the zero-cost-when-off
   invariant asserted by the chaos tests and the bench CI gate). *)

(* ---------------- counters ---------------- *)

(* Every counter is one slot, declared here once by its wire name; the
   snapshot, zero, sum and JSON object of a run's counts all derive
   from this list. *)
let names =
  [
    "noc_drops";
    "noc_corrupts";
    "noc_delays";
    "noc_retries";       (* retransmissions scheduled by the NoC *)
    "links_dead";        (* links whose retry budget ran out *)
    "relay_deliveries";  (* packets delivered via the SDRAM relay *)
    "sdram_retries";
    "tile_stalls";
    "stall_cycles";
    "lock_timeouts";     (* typed Dlock timeouts (counted always) *)
    (* draws: how often each tag consulted the hash stream, hit or not —
       the denominator of the per-tag soak summary *)
    "noc_draws";         (* per attempt on star, per link on routed fabrics *)
    "sdram_draws";
    "stall_draws";
    "power_cut_draws";   (* one per machine *)
    "power_cuts";        (* cuts that actually fired *)
  ]

type slot = int
type counts = int array

let slot name =
  let rec find i = function
    | [] -> invalid_arg ("Fault.slot: no counter " ^ name)
    | n :: _ when n = name -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 names

let zero () = Array.make (List.length names) 0
let get (c : counts) s = c.(s)

let sum cs =
  let acc = zero () in
  List.iter (Array.iteri (fun i v -> acc.(i) <- acc.(i) + v)) cs;
  acc

type t = {
  cfg : Config.t;
  enabled : bool;
  live : counts;
  sdram_tick : int array;          (* per-core SDRAM access counter *)
  stall_tick : int array;          (* per-core timed-access counter *)
}

let create (cfg : Config.t) =
  {
    cfg;
    enabled = Config.faults_enabled cfg;
    live = zero ();
    sdram_tick = Array.make cfg.Config.cores 0;
    stall_tick = Array.make cfg.Config.cores 0;
  }

let enabled t = t.enabled
let counts t = Array.copy t.live
let config t = t.cfg
let add t s n = t.live.(s) <- t.live.(s) + n
let bump t s = add t s 1

let noc_drops = slot "noc_drops"
let noc_corrupts = slot "noc_corrupts"
let noc_delays = slot "noc_delays"
let noc_draws = slot "noc_draws"
let sdram_retries = slot "sdram_retries"
let sdram_draws = slot "sdram_draws"
let tile_stalls = slot "tile_stalls"
let stall_cycles = slot "stall_cycles"
let stall_draws = slot "stall_draws"
let power_cut_draws = slot "power_cut_draws"
let power_cuts = slot "power_cuts"

(* ---------------- the hash stream ---------------- *)

(* splitmix64 finalizer: the site key is folded in word by word, so every
   (seed, tag, a, b, c, d) tuple draws an independent uniform value. *)
let mix64 (x : int64) =
  let x = Int64.logxor x (Int64.shift_right_logical x 33) in
  let x = Int64.mul x 0xFF51AFD7ED558CCDL in
  let x = Int64.logxor x (Int64.shift_right_logical x 33) in
  let x = Int64.mul x 0xC4CEB9FE1A85EC53L in
  Int64.logxor x (Int64.shift_right_logical x 33)

let fold h v = mix64 (Int64.add h (Int64.of_int v))

let site t ~tag ~a ~b ~c ~d =
  let h = mix64 (Int64.of_int (t.cfg.Config.fault_seed lxor 0x9E3779B9)) in
  fold (fold (fold (fold (fold h tag) a) b) c) d

(* Uniform float in [0, 1) from the top 53 bits. *)
let uniform h =
  Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)

(* Uniform int in [0, bound) from an independent remix. *)
let pick h bound =
  if bound <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (mix64 h) 1)
                       (Int64.of_int bound))

(* ---------------- checksums ---------------- *)

(* FNV-1a over the payload — the per-packet end-to-end checksum. *)
let checksum (data : Bytes.t) =
  let h = ref 0xcbf29ce484222325L in
  Bytes.iter
    (fun ch ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch)))
             0x100000001b3L)
    data;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL)

(* ---------------- NoC outcomes ---------------- *)

type outcome = Deliver | Drop | Corrupt | Delay of int

(* Outcome of delivery attempt [attempt] of packet [seq] on link
   (src, dst).  Drop, corruption and delay are drawn independently so a
   retransmission of a dropped packet can itself be delayed. *)
let noc_outcome t ~src ~dst ~seq ~attempt =
  let cfg = t.cfg in
  bump t noc_draws;
  let h = site t ~tag:1 ~a:src ~b:dst ~c:seq ~d:attempt in
  let u = uniform h in
  if u < cfg.Config.noc_drop_prob then begin
    bump t noc_drops;
    Drop
  end
  else if u < cfg.Config.noc_drop_prob +. cfg.Config.noc_corrupt_prob then begin
    bump t noc_corrupts;
    Corrupt
  end
  else if
    u < cfg.Config.noc_drop_prob +. cfg.Config.noc_corrupt_prob
        +. cfg.Config.noc_delay_prob
  then begin
    bump t noc_delays;
    Delay (1 + pick h cfg.Config.noc_delay_max)
  end
  else Deliver

(* Outcome of one delivery attempt routed over the physical links of a
   non-star fabric: one independent draw per directed link of the route
   (tag 4, keyed by link id — the by-hop chaos addressing).  A drop on
   any link drops the packet; otherwise a corruption on any link
   corrupts it; otherwise per-link transient delays accumulate.  The
   packet-level counters tick once per attempt, like [noc_outcome], so
   soak summaries mean the same thing on every fabric. *)
let route_outcome t ~src ~dst ~seq ~attempt =
  match t.cfg.Config.topology with
  | Topology.Star -> noc_outcome t ~src ~dst ~seq ~attempt
  | topo ->
      let cfg = t.cfg in
      let dropped = ref false and corrupted = ref false and delay = ref 0 in
      Topology.iter_route topo ~cores:cfg.Config.cores ~src ~dst (fun link ->
          bump t noc_draws;
          let h = site t ~tag:4 ~a:link ~b:seq ~c:attempt ~d:0 in
          let u = uniform h in
          if u < cfg.Config.noc_drop_prob then dropped := true
          else if u < cfg.Config.noc_drop_prob +. cfg.Config.noc_corrupt_prob
          then corrupted := true
          else if
            u
            < cfg.Config.noc_drop_prob +. cfg.Config.noc_corrupt_prob
              +. cfg.Config.noc_delay_prob
          then delay := !delay + 1 + pick h cfg.Config.noc_delay_max);
      if !dropped then begin
        bump t noc_drops;
        Drop
      end
      else if !corrupted then begin
        bump t noc_corrupts;
        Corrupt
      end
      else if !delay > 0 then begin
        bump t noc_delays;
        Delay !delay
      end
      else Deliver

(* ---------------- SDRAM transient errors ---------------- *)

(* One draw per (core, access); the caller retries until clean or the
   retry budget runs out.  Each retry is a fresh access (fresh tick). *)
let sdram_error t ~core =
  let tick = t.sdram_tick.(core) in
  t.sdram_tick.(core) <- tick + 1;
  bump t sdram_draws;
  let hit =
    uniform (site t ~tag:2 ~a:core ~b:tick ~c:0 ~d:0)
    < t.cfg.Config.sdram_error_prob
  in
  if hit then bump t sdram_retries;
  hit

(* ---------------- tile stalls ---------------- *)

(* Transient stall of the calling tile, drawn per timed access; 0 = none. *)
let tile_stall t ~core =
  let tick = t.stall_tick.(core) in
  t.stall_tick.(core) <- tick + 1;
  bump t stall_draws;
  let h = site t ~tag:3 ~a:core ~b:tick ~c:0 ~d:0 in
  if uniform h < t.cfg.Config.tile_stall_prob then begin
    let cycles = 1 + pick h t.cfg.Config.tile_stall_cycles in
    bump t tile_stalls;
    add t stall_cycles cycles;
    cycles
  end
  else 0

(* ---------------- power failure ---------------- *)

(* The seed-derived cut cycle: one draw for the whole run (tag 5).  Pure
   in (fault_seed, window) so job planners can predict the cycle without
   a Fault.t — the cycle is a function of the job key. *)
let power_cut_cycle ~fault_seed ~window =
  let h = mix64 (Int64.of_int (fault_seed lxor 0x9E3779B9)) in
  let h = fold (fold (fold (fold (fold h 5) 0) 0) 0) 0 in
  1 + pick h window

(* Whether (and when) this machine's power fails.  Checked once at
   machine construction; [None] when disarmed, without consulting the
   hash stream — the disarmed machine schedules nothing and stays
   bit-identical to the fault-free one. *)
let power_cut_at t =
  if t.cfg.Config.power_cut_prob <= 0.0 then None
  else begin
    bump t power_cut_draws;
    let h = site t ~tag:5 ~a:0 ~b:0 ~c:0 ~d:0 in
    if uniform h < t.cfg.Config.power_cut_prob then
      Some (power_cut_cycle ~fault_seed:t.cfg.Config.fault_seed
              ~window:t.cfg.Config.power_cut_window)
    else None
  end

let record_power_cut t = bump t power_cuts
