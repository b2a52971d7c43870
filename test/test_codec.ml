(* The wire and report codecs (Pmc_bench.Codec declarations in Job,
   Result, Measure, Report, Protocol and Run): every value round-trips
   exactly, and every decoder is total — on an arbitrary JSON tree, or
   on a valid encoding with one field dropped, retyped, made
   non-integral or pushed out of range, it returns a value or its
   documented error ([Failure] from [of_json], [Error] from
   [*_of_line]) and never raises anything else. *)

module J = Pmc_bench.Json
module Job = Pmc_jobs.Job
module R = Pmc_jobs.Result
module M = Pmc_bench.Measure
module P = Pmc_serve.Protocol

let replace_all s ~sub ~by =
  let b = Buffer.create (String.length s) and n = String.length sub in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let contains s sub = replace_all s ~sub ~by:"" <> s

(* ---------------- regressions ---------------- *)

let chaos_job seed =
  Job.Chaos
    { Job.c_app = "stencil"; c_backend = "dsm"; c_topology = "star";
      c_cores = 4; c_scale = 4; seed; intensity = 2.0; model_check = true;
      replay_budget = None }

(* Both seeds used to print as 1.23457e+15: one key for two jobs, and a
   decoded seed nobody asked for. *)
let test_seeds_keep_their_keys () =
  let a = chaos_job 123456789012345 and b = chaos_job 123456789012346 in
  Alcotest.(check bool) "distinct keys" true (Job.key a <> Job.key b);
  List.iter
    (fun j ->
      Alcotest.(check bool) "decodes to itself" true
        (Job.of_json (J.parse (Job.key j)) = j))
    [ a; b ];
  (* past 1e15 the encoding cannot be exact, so it is refused *)
  match Job.key (chaos_job 1234567890123456) with
  | _ -> Alcotest.fail "encoded a seed of 1.2e15"
  | exception Invalid_argument _ -> ()

(* A float with more digits than the printer keeps used to decode as
   sent while the job's key named the rounded value: two requests, one
   key, two different runs.  A decoded job now runs what its key says. *)
let test_decoded_job_is_its_key () =
  let line =
    replace_all (Job.key (chaos_job 7)) ~sub:{|"intensity":2|}
      ~by:{|"intensity":1.23456789|}
  in
  let job = Job.of_json (J.parse line) in
  Alcotest.(check bool) "decoded job = its key's job" true
    (Job.of_json (J.parse (Job.key job)) = job)

let submit job budget =
  Printf.sprintf {|{"op":"submit","job":%s,"budget":%s,"wait":false}|} job
    budget

let bench_job ~cores ~scale =
  Printf.sprintf
    {|{"kind":"bench","app":"stencil","backend":"dsm","topology":"star","cores":%s,"scale":%s,"unbatched":false,"warmup":0,"repeat":1}|}
    cores scale

let no_budget = {|{"max_cycles":null,"max_states":null}|}

(* The four probes that used to decode to something nobody sent:
   truncated, wrapped to 0, or silently dropped. *)
let test_probes_refused () =
  let refused line field =
    match P.request_of_line line with
    | Ok r -> Alcotest.failf "accepted: %s" (P.request_to_line r)
    | Error m ->
        if not (contains m field) then
          Alcotest.failf "%S does not name %s" m field
  in
  refused (submit (bench_job ~cores:"4.7" ~scale:"8") no_budget) "job.cores";
  refused (submit (bench_job ~cores:"4" ~scale:"1e30") no_budget) "job.scale";
  refused
    (submit (bench_job ~cores:"4" ~scale:"8")
       {|{"max_cycles":null,"max_states":"5"}|})
    "budget.max_states";
  refused {|{"op":"status","id":3.9}|} "id";
  refused
    (submit
       (replace_all (Job.key (chaos_job 7)) ~sub:{|"seed":7|}
          ~by:{|"seed":-1e19|})
       no_budget)
    "job.seed";
  (* the lenient defaults still hold *)
  match
    P.request_of_line
      {|{"op":"submit","job":{"kind":"litmus","program":"sb"}}|}
  with
  | Ok (P.Submit { job = Job.Litmus { models = []; limit = None; _ }; wait = false;
                   budget }) when budget = Pmc_jobs.Run.no_budget -> ()
  | Ok r -> Alcotest.failf "defaults: %s" (P.request_to_line r)
  | Error m -> Alcotest.failf "defaults refused: %s" m

(* The error names the first offending field in declaration order, and
   says whether it is missing or mistyped. *)
let test_first_field_named () =
  let msg j =
    match Job.of_json (J.parse j) with
    | _ -> Alcotest.fail "decoded"
    | exception Failure m -> m
  in
  Alcotest.(check string) "first missing"
    "Pmc_jobs.Job: malformed job: cores missing"
    (msg {|{"kind":"bench","app":"a","backend":"b","topology":"star"}|});
  Alcotest.(check string) "mistyped, not missing"
    "Pmc_jobs.Job: malformed job: cores mistyped: expected an integer of \
     magnitude < 1e15, got \"4\""
    (msg {|{"kind":"bench","app":"a","backend":"b","topology":"star","cores":"4"}|})

(* ---------------- generators ---------------- *)

open QCheck.Gen

let count = int_bound 100_000
let text = oneofl [ "a"; "stencil"; "x\"y\n"; "" ]

(* Floats the printer keeps exactly, and a few it rounds (which must
   still re-encode to the same bytes once decoded). *)
let number =
  oneof
    [ map (fun k -> float_of_int k /. 8.0) (int_bound 80);
      oneofl [ 0.115992; 2227604.3; 1.5e7; 3.14159265 ] ]

let gen_metrics =
  let* a = array_size (return 13) count in
  let* utilization, throughput = pair number number in
  return
    { M.cycles = a.(0); noc_flits = a.(1); noc_writes = a.(2);
      flushes = a.(3); lock_acquires = a.(4); lock_transfers = a.(5);
      dcache_misses = a.(6); instructions = a.(7); utilization;
      requests = a.(8); p50 = a.(9); p99 = a.(10); p999 = a.(11);
      lat_digest = a.(12); throughput }

let gen_sample =
  let* cores = oneofl [ 1; 4; 8; 16 ] in
  let* fabric = oneofl [ "star"; "mesh"; "hier" ] in
  let topology =
    Result.get_ok (Pmc_sim.Topology.resolve fabric ~cores)
  in
  let* app = text in
  let* backend = oneofl Pmc.Backends.all in
  let* work =
    oneofl
      Pmc_bench.Spec.[ Sim; Check_replay; Check_enum; Check_crash ]
  in
  let* scale = int_range 1 64 in
  let* ok, deterministic = pair bool bool in
  let* repeats = int_range 1 5 in
  let* metrics = gen_metrics in
  let* host_s, (host_cycles_per_s, minor_words) =
    pair number (pair number number)
  in
  return
    { M.case = { Pmc_bench.Spec.app; backend; topology; cores; scale; work };
      ok; deterministic; repeats; metrics; host_s; host_cycles_per_s;
      minor_words }

let gen_report =
  let* samples = list_size (int_bound 3) gen_sample in
  let* label, suite = pair text text in
  let* unbatched = bool in
  let* jobs = int_bound 8 in
  return
    { Pmc_bench.Report.schema = M.schema_version; label; suite; unbatched;
      jobs; samples }

let gen_counts = array_size (return (List.length Pmc_sim.Fault.names)) count

let int64 = map (fun x -> Int64.mul (Int64.of_int x) 3L) int

let gen_result =
  let module C = Pmc_apps.Chaos in
  let module X = Pmc_apps.Crash in
  let row =
    let* program, model = pair text text in
    let* outcomes = list_size (int_bound 3) text in
    let* states, stuck = pair count count in
    return { R.program; model; outcomes; states; stuck }
  in
  let check =
    let* name, text' = pair text text in
    let* ok = bool in
    let* errors, warnings = pair (list_size (int_bound 2) text)
        (list_size (int_bound 2) text) in
    return (R.Check_checked { R.name; ok; errors; warnings; text = text' })
  in
  let bench =
    let* id = text in
    let* b_ok, deterministic = pair bool bool in
    let* repeats = int_range 1 5 in
    let* metrics = gen_metrics in
    return (R.Bench_measured { R.id; b_ok; deterministic; repeats; metrics })
  in
  let chaos =
    let* verdict =
      oneof
        [ return C.Completed; map (fun s -> C.Typed_error s) text;
          map2 (fun checksum reference -> C.Wrong_result { checksum; reference })
            int64 int64;
          map (fun n -> C.Inconsistent n) count ]
    in
    let* app = text in
    let* backend = oneofl Pmc.Backends.all in
    let* cores, scale = pair count count in
    let* seed, wall = pair count count in
    let* intensity = number in
    let* faults = gen_counts in
    let* events, dropped = pair count count in
    let* replayed = bool in
    return
      (R.Chaos_soaked
         { C.app; backend; cores; scale; seed; intensity; verdict; wall;
           faults; events; dropped; replayed })
  in
  let crash =
    let* verdict =
      oneof
        [ return X.Completed; return X.Recovered;
          map2 (fun objects words -> X.Torn { objects; words }) count count;
          map (fun n -> X.Prefix_inconsistent n) count;
          map (fun s -> X.Check_error s) text ]
    in
    let obj_check =
      let* obj_name = text in
      let* words, committed = pair count count in
      let* published, torn_words = pair count count in
      let* in_flight = bool in
      return
        { X.obj_name; words; committed; published; in_flight; torn_words }
    in
    let recovery =
      let* committed = bool in
      let* records, words_applied = pair count count in
      return { Pmc_sim.Farmem.committed; records; words_applied }
    in
    let* app = text in
    let* backend = oneofl Pmc.Backends.all in
    let* cores, scale = pair count count in
    let* seed, window = pair count count in
    let* cut = opt count in
    let* log, replayed = pair bool bool in
    let* wall = count in
    let* objects = list_size (int_bound 3) obj_check in
    let* recovery = opt recovery in
    let* events, dropped = pair count count in
    return
      (R.Crash_checked
         { X.app; backend; cores; scale; seed; window; cut; log; verdict;
           wall; objects; recovery; events; dropped; replayed })
  in
  let error =
    let* kind = oneofl R.[ Bad_request; Budget_exceeded; Runtime_error ] in
    let* detail = text in
    return (R.Error { R.kind; detail })
  in
  oneof
    [ map (fun rows -> R.Litmus_outcomes rows) (list_size (int_bound 3) row);
      check; bench; chaos; crash; error ]

(* Arbitrary trees over the wire vocabulary, so that some of them hit
   real tags and keys. *)
let keys =
  [ "kind"; "op"; "resp"; "v"; "ok"; "job"; "budget"; "wait"; "id";
    "program"; "models"; "limit"; "app"; "backend"; "topology"; "cores";
    "scale"; "seed"; "intensity"; "model_check"; "replay_budget"; "window";
    "log"; "rows"; "name"; "metrics"; "schema"; "results"; "work";
    "max_states"; "stats"; "result"; "reason"; "verdict"; "detail" ]

let gen_json =
  let leaf =
    oneof
      [ return J.Null; map (fun b -> J.Bool b) bool;
        map (fun f -> J.Num f)
          (oneofl [ 0.; 1.; 4.; 5.; 4.7; -1.; 1e30; -1e19; infinity; nan ]);
        map (fun s -> J.Str s)
          (oneofl
             ([ "litmus"; "check"; "bench"; "chaos"; "chaos-crash";
                "submit"; "status"; "result"; "stats"; "error"; "completed";
                "star"; "dsm"; "sim"; "sb" ] @ keys)) ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> J.List l) (list_size (int_bound 3) (self (n / 4))));
               (3,
                map (fun kvs -> J.Obj kvs)
                  (list_size (int_bound 6) (pair (oneofl keys) (self (n / 4)))))
             ])

(* ---------------- mutations ---------------- *)

type step = K of string | I of int

(* the path of every object member, at any depth *)
let rec members = function
  | J.Obj kvs ->
      List.concat_map
        (fun (k, v) -> [ K k ] :: List.map (fun p -> K k :: p) (members v))
        kvs
  | J.List xs ->
      List.concat
        (List.mapi (fun i v -> List.map (fun p -> I i :: p) (members v)) xs)
  | _ -> []

type mutation = Drop | Retype | Fraction | Huge | Overflow

(* [Overflow] is 1e999: [infinity] in a tree; in a line, the literal
   text (the printer would write "inf") *)
let change m v =
  match (m, v) with
  | Retype, J.Str _ -> J.Num 1.
  | Retype, J.Num _ -> J.Str "1"
  | Retype, J.Bool b -> J.Str (string_of_bool b)
  | Retype, (J.Obj _ | J.List _) -> J.Bool true
  | Retype, J.Null -> J.Num 0.
  | Fraction, J.Num f -> J.Num (Float.of_int (truncate f) +. 0.5)
  | Fraction, _ -> J.Num 4.7
  | Huge, _ -> J.Num 1e30
  | (Overflow | Drop), _ -> J.Num infinity

let rec mutate m path j =
  match (path, j) with
  | [ K k ], J.Obj kvs ->
      J.Obj
        (List.filter_map
           (fun (k', v) ->
             if k' <> k then Some (k', v)
             else if m = Drop then None
             else Some (k', change m v))
           kvs)
  | K k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', v) -> (k', if k' = k then mutate m rest v else v)) kvs)
  | I i :: rest, J.List xs ->
      J.List (List.mapi (fun i' v -> if i' = i then mutate m rest v else v) xs)
  | _ -> j

(* a valid encoding, or the same with one member mutated *)
let mutated enc =
  let* j = enc in
  let paths = members j in
  if paths = [] then return j
  else
    let* path = oneofl paths in
    let* m = oneofl [ Drop; Retype; Fraction; Huge; Overflow ] in
    oneof [ return j; return (mutate m path j) ]

let line j =
  let rec mark = function
    | J.Num f when f = infinity -> J.Str "@1e999@"
    | J.List xs -> J.List (List.map mark xs)
    | J.Obj kvs -> J.Obj (List.map (fun (k, v) -> (k, mark v)) kvs)
    | v -> v
  in
  replace_all (J.to_compact (mark j)) ~sub:{|"@1e999@"|} ~by:"1e999"

(* Every fault counter is required: a chaos result without any one of
   them is refused, and the error names that counter. *)
let test_every_counter_required () =
  let r =
    R.Chaos_soaked
      { Pmc_apps.Chaos.app = "stencil"; backend = Pmc.Backends.Dsm;
        cores = 4; scale = 4; seed = 7; intensity = 2.0;
        verdict = Pmc_apps.Chaos.Completed; wall = 0;
        faults = Pmc_sim.Fault.zero (); events = 0; dropped = 0;
        replayed = false }
  in
  List.iter
    (fun name ->
      match R.of_json (mutate Drop [ K "faults"; K name ] (R.to_json r)) with
      | _ -> Alcotest.failf "decoded without %s" name
      | exception Failure m ->
          Alcotest.(check string) name
            ("Pmc_jobs.Result: malformed result: faults." ^ name
           ^ " missing")
            m)
    Pmc_sim.Fault.names

(* ---------------- properties ---------------- *)

(* A decoded value must re-encode canonically: decoding its encoding
   gives the same bytes again.  Anything but [Failure] escaping the
   decoder fails the property. *)
let total_of_json ~decode ~encode j =
  match decode j with
  | v ->
      let j' = encode v in
      J.to_compact (encode (decode j')) = J.to_compact j'
  | exception Failure _ -> true

let total_of_line ~of_line ~to_line l =
  match of_line l with
  | Ok v -> (
      let l' = to_line v in
      match of_line l' with Ok v' -> to_line v' = l' | Error _ -> false)
  | Error _ -> true

let prop name ~count gen f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make gen) f)

let mutation_props =
  let on_mutated name gen f =
    prop (name ^ " total on mutated encodings") ~count:500 (mutated gen) f
  in
  let lines gen = map line (mutated gen) in
  [
    on_mutated "Job.of_json" (map Job.to_json Test_serve.gen_job)
      (total_of_json ~decode:Job.of_json ~encode:Job.to_json);
    on_mutated "Result.of_json" (map R.to_json gen_result)
      (total_of_json ~decode:R.of_json ~encode:R.to_json);
    on_mutated "Report.of_json" (map Pmc_bench.Report.to_json gen_report)
      (total_of_json ~decode:Pmc_bench.Report.of_json
         ~encode:Pmc_bench.Report.to_json);
    on_mutated "Measure.sample_of_json" (map M.sample_to_json gen_sample)
      (total_of_json ~decode:M.sample_of_json ~encode:M.sample_to_json);
    prop "Protocol.request_of_line total on mutated encodings" ~count:500
      (lines (map P.request_to_json Test_serve.gen_request))
      (total_of_line ~of_line:P.request_of_line ~to_line:P.request_to_line);
    prop "Protocol.response_of_line total on mutated encodings" ~count:500
      (lines
         (map P.response_to_json
            (oneof
               [ Test_serve.gen_response;
                 map2 (fun id result -> P.Job_result { id; result })
                   (int_bound 1000) gen_result ])))
      (total_of_line ~of_line:P.response_of_line
         ~to_line:P.response_to_line);
  ]

(* arbitrary trees: the same contract on shapes no encoder writes *)
let tree_props =
  let on_tree name f = prop (name ^ " total on arbitrary trees") ~count:500 gen_json f in
  [
    on_tree "Job.of_json" (total_of_json ~decode:Job.of_json ~encode:Job.to_json);
    on_tree "Result.of_json" (total_of_json ~decode:R.of_json ~encode:R.to_json);
    on_tree "Report.of_json"
      (total_of_json ~decode:Pmc_bench.Report.of_json
         ~encode:Pmc_bench.Report.to_json);
    on_tree "Measure.sample_of_json"
      (total_of_json ~decode:M.sample_of_json ~encode:M.sample_to_json);
    on_tree "Protocol.*_of_line" (fun j ->
        let l = line j in
        total_of_line ~of_line:P.request_of_line ~to_line:P.request_to_line l
        && total_of_line ~of_line:P.response_of_line
             ~to_line:P.response_to_line l);
  ]

(* drawn valid values round-trip: jobs as values, the rest as bytes *)
let round_trip_props =
  let bytes name gen enc dec =
    prop (name ^ " round-trip") ~count:300 gen (fun v ->
        let s = J.to_compact (enc v) in
        J.to_compact (enc (dec (J.parse s))) = s)
  in
  [
    prop "jobs decode to themselves" ~count:300 Test_serve.gen_job (fun job ->
        Job.of_json (J.parse (Job.key job)) = job);
    bytes "results" gen_result R.to_json R.of_json;
    bytes "reports" gen_report Pmc_bench.Report.to_json
      Pmc_bench.Report.of_json;
    bytes "samples" gen_sample M.sample_to_json M.sample_of_json;
  ]

let suite =
  ( "codec",
    [
      Alcotest.test_case "distinct seeds, distinct keys" `Quick
        test_seeds_keep_their_keys;
      Alcotest.test_case "decoded job is its key" `Quick
        test_decoded_job_is_its_key;
      Alcotest.test_case "probe lines refused" `Quick test_probes_refused;
      Alcotest.test_case "first offending field named" `Quick
        test_first_field_named;
      Alcotest.test_case "every fault counter required" `Quick
        test_every_counter_required;
    ]
    @ round_trip_props @ mutation_props @ tree_props )
