(* Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).

   Layout: one process (pid 0), one track (tid) per core.  Entry/exit
   pairs become complete duration slices ("ph":"X") so the time a core
   spends inside exclusive and read-only scopes is visible at a glance;
   accesses, fences, flushes, lock handovers, NoC posts and cache
   maintenance become instant events with their payload in [args]; the
   Fig. 8 stall-category totals are appended as one counter sample per
   core.  Scope pairs are matched here rather than emitted as B/E so a
   ring-buffer drop can never produce an unbalanced trace.

   Timestamps are simulator cycles passed through as microseconds — only
   relative durations matter when inspecting a simulated run. *)

open Pmc_sim

let buf_add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

type emitter = { b : Buffer.t; mutable first : bool }

let record e fields =
  if e.first then e.first <- false else Buffer.add_string e.b ",\n";
  Buffer.add_char e.b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char e.b ',';
      Buffer.add_char e.b '"';
      Buffer.add_string e.b k;
      Buffer.add_string e.b "\":";
      Buffer.add_string e.b v)
    fields;
  Buffer.add_char e.b '}'

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  buf_add_escaped b s;
  Buffer.add_char b '"';
  Buffer.contents b

let args kvs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs)
  ^ "}"

let instant e ~name ~cat ~ts ~tid ?(extra = []) () =
  record e
    [
      ("name", str name); ("cat", str cat); ("ph", str "i");
      ("s", str "t"); ("ts", string_of_int ts); ("pid", "0");
      ("tid", string_of_int tid);
      ("args", args extra);
    ]

let slice e ~name ~cat ~ts ~dur ~tid ?(extra = []) () =
  record e
    [
      ("name", str name); ("cat", str cat); ("ph", str "X");
      ("ts", string_of_int ts); ("dur", string_of_int (max 1 dur));
      ("pid", "0"); ("tid", string_of_int tid);
      ("args", args extra);
    ]

let obj_label (o : Event.obj) = Printf.sprintf "%s#%d" o.Event.name o.Event.id

(* A word access names its word index, a byte access its byte offset. *)
let access e ~op ~ts ~tid obj width byte value =
  let name, unit, index =
    if width = 4 then (op, "word", byte / 4) else (op ^ "8", "byte", byte)
  in
  instant e ~name:(name ^ " " ^ obj_label obj) ~cat:"mem" ~ts ~tid
    ~extra:[ (unit, string_of_int index); ("value", string_of_int value) ]
    ()

let probe e ~ts ~tid (p : Probe.event) =
  match p with
  | Probe.Lock { lock; op; transferred; _ } ->
      instant e
        ~name:(Printf.sprintf "lock#%d %s" lock (Probe.lock_op_name op))
        ~cat:"lock" ~ts ~tid
        ~extra:[ ("transferred", if transferred then "true" else "false") ]
        ()
  | Probe.Noc_post { src; dst; off; bytes; arrival } ->
      instant e
        ~name:(Printf.sprintf "noc %d>%d" src dst)
        ~cat:"noc" ~ts ~tid
        ~extra:
          [
            ("dst", string_of_int dst); ("off", string_of_int off);
            ("bytes", string_of_int bytes);
            ("arrival", string_of_int arrival);
          ]
        ()
  | Probe.Cache_maint { op; addr; len; lines_touched; lines_written_back; _ }
    ->
      instant e ~name:(Probe.maint_op_name op) ~cat:"cache" ~ts ~tid
        ~extra:
          [
            ("addr", string_of_int addr); ("len", string_of_int len);
            ("lines", string_of_int lines_touched);
            ("written_back", string_of_int lines_written_back);
          ]
        ()
  | Probe.Task { op; _ } ->
      instant e ~name:("task " ^ Probe.task_op_name op) ~cat:"task" ~ts ~tid
        ()
  | Probe.Fault f ->
      instant e
        ~name:("fault " ^ Probe.fault_name f)
        ~cat:"fault" ~ts ~tid
        ~extra:[ ("detail", str (Probe.fault_detail f)) ]
        ()

let to_buffer ?stats (b : Buffer.t) (events : Event.t list) : unit =
  let e = { b; first = true } in
  Buffer.add_string b "{\"traceEvents\":[\n";
  (* thread names: one track per core seen in the trace (or in stats) *)
  let cores =
    List.fold_left (fun acc (ev : Event.t) -> max acc (ev.Event.core + 1))
      (match stats with Some s -> Array.length s.Stats.cores | None -> 0)
      events
  in
  record e
    [
      ("name", str "process_name"); ("ph", str "M"); ("pid", "0");
      ("args", args [ ("name", str "pmc_sim") ]);
    ];
  for c = 0 to cores - 1 do
    record e
      [
        ("name", str "thread_name"); ("ph", str "M"); ("pid", "0");
        ("tid", string_of_int c);
        ("args", args [ ("name", str (Printf.sprintf "core %d" c)) ]);
      ]
  done;
  (* scope matching: (core, obj id, mode) -> entry-time stack *)
  let open_scopes : (int * int * bool, int list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let scope_push ~core ~oid ~x ts =
    let key = (core, oid, x) in
    match Hashtbl.find_opt open_scopes key with
    | Some stack -> stack := ts :: !stack
    | None -> Hashtbl.add open_scopes key (ref [ ts ])
  in
  let scope_pop ~core ~oid ~x =
    match Hashtbl.find_opt open_scopes (core, oid, x) with
    | Some ({ contents = ts :: rest } as stack) ->
        stack := rest;
        Some ts
    | _ -> None
  in
  List.iter
    (fun (ev : Event.t) ->
      let ts = ev.Event.time and tid = ev.Event.core in
      match ev.Event.kind with
      | Event.Annot { ann = Event.Entry_x; obj = Some o } ->
          scope_push ~core:tid ~oid:o.Event.id ~x:true ts
      | Event.Annot { ann = Event.Entry_ro; obj = Some o } ->
          scope_push ~core:tid ~oid:o.Event.id ~x:false ts
      | Event.Annot { ann = Event.Exit_x; obj = Some o } -> (
          match scope_pop ~core:tid ~oid:o.Event.id ~x:true with
          | Some t0 ->
              slice e ~name:("X " ^ obj_label o) ~cat:"scope" ~ts:t0
                ~dur:(ts - t0) ~tid ()
          | None ->
              instant e ~name:("exit_x " ^ obj_label o) ~cat:"scope" ~ts ~tid
                ())
      | Event.Annot { ann = Event.Exit_ro; obj = Some o } -> (
          match scope_pop ~core:tid ~oid:o.Event.id ~x:false with
          | Some t0 ->
              slice e ~name:("RO " ^ obj_label o) ~cat:"scope" ~ts:t0
                ~dur:(ts - t0) ~tid ()
          | None ->
              instant e ~name:("exit_ro " ^ obj_label o) ~cat:"scope" ~ts
                ~tid ())
      | Event.Annot { ann = Event.Fence; _ } ->
          instant e ~name:"fence" ~cat:"annot" ~ts ~tid ()
      | Event.Annot { ann = Event.Flush; obj } ->
          let extra =
            match obj with
            | Some o -> [ ("obj", str (obj_label o)) ]
            | None -> []
          in
          instant e ~name:"flush" ~cat:"annot" ~ts ~tid ~extra ()
      | Event.Annot { ann = Event.Entry_x | Event.Entry_ro; obj = None } -> ()
      | Event.Annot { ann = Event.Exit_x | Event.Exit_ro; obj = None } -> ()
      | Event.Read { obj; width; byte; value } ->
          access e ~op:"rd" ~ts ~tid obj width byte value
      | Event.Write { obj; width; byte; value } ->
          access e ~op:"wr" ~ts ~tid obj width byte value
      | Event.Init _ ->
          (* untimed pre-run initialization: no place on the timeline *)
          ()
      | Event.Probe p -> probe e ~ts ~tid p)
    events;
  (* leftover open scopes (exit lost to a ring drop, or trace cut short) *)
  Hashtbl.iter
    (fun (core, oid, x) stack ->
      List.iter
        (fun t0 ->
          instant e
            ~name:(Printf.sprintf "%s obj#%d (no exit)"
                     (if x then "entry_x" else "entry_ro") oid)
            ~cat:"scope" ~ts:t0 ~tid:core ())
        !stack)
    open_scopes;
  (* stall-category counters: one sample per core with the run's totals *)
  (match stats with
  | None -> ()
  | Some s ->
      Array.iteri
        (fun c (core_stats : Stats.core) ->
          record e
            [
              ("name", str (Printf.sprintf "core %d stalls" c));
              ("ph", str "C"); ("ts", "0"); ("pid", "0");
              ( "args",
                args
                  (List.map
                     (fun cat ->
                       ( Stats.category_name cat,
                         string_of_int (Stats.get core_stats cat) ))
                     Stats.categories) );
            ])
        s.Stats.cores);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n"

let to_string ?stats events =
  let b = Buffer.create 65536 in
  to_buffer ?stats b events;
  Buffer.contents b

let write_file ?stats ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?stats events))
