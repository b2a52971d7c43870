(* Diff two benchmark reports against per-metric tolerances — the
   regression gate.

   Cases are joined on their stable id (app/backend/cores/scale).  For
   every gated metric the fractional change (cur - base) / base is
   computed; a change above the metric's tolerance is a regression, a
   change below the negative tolerance an improvement, anything in the
   band is noise.  Checksum failures and cases that disappeared from the
   current report always fail the gate; new cases are reported but do
   not fail (they have no baseline to regress against). *)

type verdict = Within | Improved | Regressed

type row = {
  case_id : string;
  metric : string;
  base : float;
  cur : float;
  delta : float;  (* fractional change; +inf when base = 0 and cur > 0 *)
  tol : float;
  verdict : verdict;
}

(* Host speed per case.  Wall time itself stays informational (noisy,
   machine-dependent), but the simulated-cycles-per-host-second *rate*
   is gated with a wide tolerance band: a case whose rate collapses
   below [host_rate_floor] of the baseline rate fails the gate.  The
   band is deliberately loose — it catches an order-of-magnitude
   slowdown (a hot path growing an allocation or a fiber switch), not
   scheduler jitter. *)
type host_row = {
  host_case_id : string;
  host_base : float;   (* seconds per run, baseline report *)
  host_cur : float;
  speedup : float;     (* base / cur; > 1 means the current run is faster *)
  rate_base : float;   (* simulated cycles per host second, baseline *)
  rate_cur : float;
  rate_ok : bool;      (* cur >= host_rate_floor * base (or not gateable) *)
}

type outcome = {
  rows : row list;
  hosts : host_row list;  (* cases present in both reports *)
  missing : string list;  (* cases in base absent from current *)
  added : string list;    (* cases in current absent from base *)
  broken : string list;   (* checksum or determinism failures in current *)
}

(* Speedups within ±[host_band] of 1.0 are reported as noise ("~"), not
   as a win or a loss. *)
let host_band = 0.10

(* The gated floor on the host-speed rate: a case fails when its
   simulated-cycles-per-host-second drop below this fraction of the
   baseline rate.  Cases where either report carries no usable rate
   (zero host time) are not gated. *)
let host_rate_floor = 0.6

(* The architectural metrics worth gating, and how much drift to accept.
   The simulator is deterministic, so these tolerances absorb benign
   code-change effects (a scheduling shift moving a few lock handovers),
   not measurement noise. *)
let default_tolerances =
  [
    ("cycles", 0.02);
    ("noc_flits", 0.02);
    ("flushes", 0.02);
    ("lock_transfers", 0.10);
    ("lat_digest", 0.0);
  ]

(* A digest has no direction: any change of the latency stream or of a
   check case's verdict content is a regression, whatever the
   tolerance. *)
let exact = [ "lat_digest" ]

let judge ~metric ~tol ~base ~cur =
  let delta =
    if base = 0.0 then (if cur = 0.0 then 0.0 else infinity)
    else (cur -. base) /. base
  in
  let verdict =
    if List.mem metric exact then (if cur = base then Within else Regressed)
    else if delta > tol then Regressed
    else if delta < -.tol then Improved
    else Within
  in
  (delta, verdict)

let run ?(tolerances = default_tolerances) ?(gate_rate = true)
    ?(subset = false) ~(base : Report.t) ~(cur : Report.t) () : outcome =
  let index (r : Report.t) =
    List.map (fun (s : Measure.sample) -> (Spec.case_id s.Measure.case, s))
      r.Report.samples
  in
  let bi = index base and ci = index cur in
  let missing =
    (* [subset]: the current report deliberately ran a sub-suite of the
       (combined) baseline — baseline-only cases are not failures *)
    if subset then []
    else
      List.filter_map
        (fun (id, _) -> if List.mem_assoc id ci then None else Some id)
        bi
  in
  let added =
    List.filter_map
      (fun (id, _) -> if List.mem_assoc id bi then None else Some id)
      ci
  in
  let broken =
    List.filter_map
      (fun (id, (s : Measure.sample)) ->
        if not s.Measure.ok then Some (id ^ ": checksum mismatch")
        else if not s.Measure.deterministic then
          Some (id ^ ": nondeterministic metrics")
        else None)
      ci
  in
  let rows =
    List.concat_map
      (fun (id, (b : Measure.sample)) ->
        match List.assoc_opt id ci with
        | None -> []
        | Some c ->
            List.map
              (fun (metric, tol) ->
                let bv = Measure.metric b.Measure.metrics metric in
                let cv = Measure.metric c.Measure.metrics metric in
                let delta, verdict = judge ~metric ~tol ~base:bv ~cur:cv in
                { case_id = id; metric; base = bv; cur = cv; delta; tol;
                  verdict })
              tolerances)
      bi
  in
  let hosts =
    List.filter_map
      (fun (id, (b : Measure.sample)) ->
        match List.assoc_opt id ci with
        | None -> None
        | Some c ->
            let hb = b.Measure.host_s and hc = c.Measure.host_s in
            let speedup =
              if hc > 0.0 then hb /. hc
              else if hb = 0.0 then 1.0
              else infinity
            in
            let rb = b.Measure.host_cycles_per_s
            and rc = c.Measure.host_cycles_per_s in
            let rate_ok =
              (* only gate when asked to and both reports carry a real
                 rate — comparing two arms of the same run (the --jobs
                 equality gates) shares the host between arms, so their
                 relative host speed is meaningless *)
              (not gate_rate) || rb <= 0.0 || rc <= 0.0
              || rc >= host_rate_floor *. rb
            in
            Some
              { host_case_id = id; host_base = hb; host_cur = hc; speedup;
                rate_base = rb; rate_cur = rc; rate_ok })
      bi
  in
  { rows; hosts; missing; added; broken }

let regressions (o : outcome) =
  List.filter (fun r -> r.verdict = Regressed) o.rows

let rate_failures (o : outcome) =
  List.filter (fun h -> not h.rate_ok) o.hosts

let ok (o : outcome) =
  regressions o = [] && rate_failures o = [] && o.missing = []
  && o.broken = []

let pp_verdict ppf = function
  | Within -> Fmt.string ppf "ok"
  | Improved -> Fmt.string ppf "improved"
  | Regressed -> Fmt.string ppf "REGRESSED"

let pp ppf (o : outcome) =
  (* 15 digits: a 49-bit digest prints in full *)
  Fmt.pf ppf "%-26s %-14s %15s %15s %8s %6s  %s@." "case" "metric" "base"
    "current" "delta" "tol" "verdict";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-26s %-14s %15.0f %15.0f %+7.1f%% %5.1f%%  %a@." r.case_id
        r.metric r.base r.cur (100.0 *. r.delta) (100.0 *. r.tol) pp_verdict
        r.verdict)
    o.rows;
  if o.hosts <> [] then begin
    Fmt.pf ppf "@.%-26s %12s %12s %9s %11s %11s  (host speed; rate gated \
                at %.0f%% of baseline)@."
      "case" "base s" "current s" "speedup" "base c/s" "cur c/s"
      (100.0 *. host_rate_floor);
    List.iter
      (fun h ->
        Fmt.pf ppf "%-26s %12.4f %12.4f %8.2fx %11.3e %11.3e  %s@."
          h.host_case_id h.host_base h.host_cur h.speedup h.rate_base
          h.rate_cur
          (if not h.rate_ok then "RATE COLLAPSED"
           else if h.speedup >= 1.0 +. host_band then "faster"
           else if h.speedup <= 1.0 -. host_band then "slower"
           else "~"))
      o.hosts
  end;
  List.iter (fun id -> Fmt.pf ppf "MISSING from current report: %s@." id)
    o.missing;
  List.iter (fun id -> Fmt.pf ppf "new case (no baseline): %s@." id) o.added;
  List.iter (fun msg -> Fmt.pf ppf "BROKEN: %s@." msg) o.broken;
  let n_reg = List.length (regressions o) in
  if ok o then Fmt.pf ppf "@.compare: OK (no regressions)@."
  else
    Fmt.pf ppf
      "@.compare: FAILED (%d regression%s, %d rate collapse%s, %d missing, \
       %d broken)@."
      n_reg
      (if n_reg = 1 then "" else "s")
      (List.length (rate_failures o))
      (if List.length (rate_failures o) = 1 then "" else "s")
      (List.length o.missing) (List.length o.broken)

let parse_tolerance_overrides spec =
  (* "cycles=0.05,noc_flits=0.1" — unknown metric names are an error *)
  let parts = String.split_on_char ',' spec in
  List.fold_left
    (fun acc part ->
      let part = String.trim part in
      if part = "" then acc
      else
        match String.index_opt part '=' with
        | None -> invalid_arg ("tolerance override without '=': " ^ part)
        | Some i ->
            let name = String.sub part 0 i in
            let value = String.sub part (i + 1) (String.length part - i - 1) in
            if not (List.mem name Measure.metric_names) then
              invalid_arg ("unknown metric in tolerance override: " ^ name);
            let f =
              match float_of_string_opt value with
              | Some f when f >= 0.0 -> f
              | _ -> invalid_arg ("bad tolerance value: " ^ part)
            in
            (name, f) :: List.remove_assoc name acc)
    default_tolerances parts
