(* Host-side instruments of the traced run.

   Spans wrap the benchmark's calls into each layer of the repository
   (Runner.run, History.check, Litmus.enumerate, a served round trip...).
   Each span records its parent, its host duration and the minor words the
   OCaml heap allocated during it; on close, its self time (duration minus
   the part its child spans cover) is added to the layer metrics it names.
   Counters are plain named accumulators for counts measured at the same
   boundaries.

   Spans cost one branch when tracing is off, so the timed runs use the
   same code as the traced run. *)

type open_span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  minor0 : float;
  mutable child_s : float;
  mutable child_words : float;
}

type record = {
  r_id : int;
  r_parent : int;
  r_name : string;
  r_start : float;
  r_dur : float;
  r_self : float;
  r_words : float;  (** self minor words *)
}

let enabled = ref false
let next_id = ref 0
let stack : open_span list ref = ref []
let finished : record list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let now = Unix.gettimeofday

let add name v =
  let old = Option.value ~default:0. (Hashtbl.find_opt counters name) in
  Hashtbl.replace counters name (old +. v)

let set_max name v =
  match Hashtbl.find_opt counters name with
  | Some old when old >= v -> ()
  | _ -> Hashtbl.replace counters name v

let get name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* Drop every counter; keep the span log, which covers the whole run. *)
let reset_counters () = Hashtbl.reset counters

let close s ~time ~words =
  let dur = now () -. s.start in
  let minor = Gc.minor_words () -. s.minor0 in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  (match !stack with
  | p :: _ ->
      p.child_s <- p.child_s +. dur;
      p.child_words <- p.child_words +. minor
  | [] -> ());
  let self = dur -. s.child_s and self_words = minor -. s.child_words in
  List.iter (fun m -> add m self) time;
  Option.iter (fun m -> add m self_words) words;
  finished :=
    { r_id = s.id; r_parent = s.parent; r_name = s.name; r_start = s.start;
      r_dur = dur; r_self = self; r_words = self_words }
    :: !finished

(* [with_ name ~time ?words f] runs [f] inside a span called [name]; its
   self seconds are added to every metric in [time] and its self minor
   words to [words]. *)
let with_ name ~time ?words f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let s =
      { id = !next_id;
        parent = (match !stack with p :: _ -> p.id | [] -> 0);
        name; start = now (); minor0 = Gc.minor_words ();
        child_s = 0.; child_words = 0. }
    in
    stack := s :: !stack;
    match f () with
    | v ->
        close s ~time ~words;
        v
    | exception e ->
        close s ~time ~words;
        raise e
  end

(* The span log as a Chrome trace-event file (open it in Perfetto or
   chrome://tracing); [args] carry the parent id, self time and self
   minor words. *)
let write_chrome path =
  let oc = open_out path in
  let t0 =
    List.fold_left (fun m r -> Float.min m r.r_start) infinity !finished
  in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f,\
         \"self_minor_words\":%.0f}}\n"
        (if i = 0 then "" else ",")
        r.r_name
        ((r.r_start -. t0) *. 1e6)
        (r.r_dur *. 1e6) r.r_id r.r_parent (r.r_self *. 1e6) r.r_words)
    (List.rev !finished);
  output_string oc "]}\n";
  close_out oc
