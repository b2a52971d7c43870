(* The paper's evaluation, figure by figure, as data with shape claims.

   Each figure measures its rows on fresh simulated machines, renders
   them through one table printer, and states the paper's shape claims
   (who wins, where a crossover falls) as predicates over those rows.
   Absolute cycle counts come from the simulator, not the authors'
   FPGA; the claims are what must reproduce. *)

open Pmc_sim
module Backends = Pmc.Backends
module Runner = Pmc_apps.Runner

(* A table's columns are printf widths: a negative width pads on the
   right (left-aligned, as [%-Ns]), a positive one on the left. *)
type block =
  | Line of string
  | Table of int list * string list list  (* columns, header and rows *)

type 'rows figure = {
  name : string;
  title : string;
  measure : unit -> 'rows;
  render : 'rows -> block list;
  claims : (string * ('rows -> bool)) list;
}

type section = Section : 'rows figure -> section

let pp_block ppf = function
  | Line s -> Fmt.pf ppf "%s@." s
  | Table (cols, rows) ->
      List.iter
        (fun cells ->
          List.map2
            (fun w c ->
              let pad = String.make (max 0 (abs w - String.length c)) ' ' in
              if w < 0 then c ^ pad else pad ^ c)
            cols cells
          |> String.concat " " |> Fmt.pf ppf "%s@.")
        rows

let table cols header rows = Table (cols, header :: rows)

let verdicts f rows =
  List.map (fun (claim, holds) -> (f.name ^ ": " ^ claim, holds rows)) f.claims

let exit_code verdicts = if List.for_all snd verdicts then 0 else 3

let run ppf sections =
  let bar = String.make 56 '=' in
  let verdicts =
    List.concat_map
      (fun (Section f) ->
        let rows = f.measure () in
        Fmt.pf ppf "@.%s@.== %s@.%s@." bar f.title bar;
        List.iter (pp_block ppf) (f.render rows);
        verdicts f rows)
      sections
  in
  Fmt.pf ppf "@.";
  List.iter
    (fun (c, ok) -> Fmt.pf ppf "%-4s %s@." (if ok then "ok" else "FAIL") c)
    verdicts;
  Fmt.pf ppf "@.done.@.";
  exit_code verdicts

let d = string_of_int
let f1 = Printf.sprintf "%.1f"
let ratio a b = float_of_int a /. float_of_int b
let per_backend first = first :: List.map Backends.to_string Backends.all
let backend_cols first = first :: List.map (fun _ -> 8) Backends.all

(* The flag program on a machine where the data memory is farther away
   than the flag memory: without PMC the reader observes stale data once
   the latency gap exceeds the polling time; the PMC drain repairs it. *)
let fig1 =
  let outcome lx ~fixed =
    let m = Machine.create { Config.small with cores = 2 } in
    let o =
      Pmc.Msg.Broken.run m ~src:0 ~dst:1 ~latency_x:lx ~latency_flag:1 ~fixed
    in
    if Pmc.Msg.Broken.ok o then Ok () else Error o.Pmc.Msg.Broken.observed
  in
  let cell = function
    | Ok () -> "ok" | Error v -> Printf.sprintf "BROKEN(%ld)" v in
  { name = "fig1";
    title = "Fig. 1 — SC-correct program on a dual-memory machine";
    measure = (fun () ->
      List.map
        (fun lx -> (lx, outcome lx ~fixed:false, outcome lx ~fixed:true))
        [ 1; 2; 4; 8; 16; 32; 64 ]);
    render = (fun rows ->
      [ table [ -14; -10; -10; -10 ]
          [ "latency(X)"; "lat(flag)"; "raw"; "PMC-fixed" ]
          (List.map (fun (x, raw, fx) -> [ d x; "1"; cell raw; cell fx ]) rows);
        Line "paper: the program breaks whenever the data write is slower than \
              the flag write; annotations make it correct on any machine." ]);
    claims =
      [ ("raw is correct without a latency gap",
         List.for_all (fun (lx, raw, _) -> lx > 1 || raw = Ok ()));
        ("raw breaks at some latency gap",
         List.exists (fun (_, raw, _) -> Result.is_error raw));
        ("the PMC drain repairs every latency",
         List.for_all (fun (_, _, fixed) -> fixed = Ok ())) ] }

let annotations =
  [ "entry_x"; "exit_x"; "entry_ro"; "exit_ro"; "fence"; "flush" ]

(* Measured cycles of each annotation on an idle machine, one core and a
   64-byte object, each timed from the state it needs: exit_x on a dirty
   object, flush on a freshly dirtied one. *)
let annotation_costs kind =
  let m = Machine.create { Config.default with cores = 2 } in
  let api = Backends.create kind m in
  let o = Pmc.Api.alloc_words api ~name:"o" ~words:16 in
  let costs = ref [] in
  Machine.spawn m ~core:0 (fun () ->
      let time f = let t0 = Machine.now m in f (); Machine.now m - t0 in
      let ex = time (fun () -> Pmc.Api.entry_x api o) in
      Pmc.Api.set api o 0 1l;
      let xx = time (fun () -> Pmc.Api.exit_x api o) in
      Pmc.Api.entry_x api o;
      Pmc.Api.set api o 0 2l;
      let fl = time (fun () -> Pmc.Api.flush api o) in
      Pmc.Api.exit_x api o;
      let er = time (fun () -> Pmc.Api.entry_ro api o) in
      let xr = time (fun () -> Pmc.Api.exit_ro api o) in
      let fe = time (fun () -> Pmc.Api.fence api) in
      costs := List.combine annotations [ ex; xx; er; xr; fe; fl ]);
  Machine.run m;
  !costs

let table2 =
  let cost rows (k : Backends.kind) ann = List.assoc ann (List.assoc k rows) in
  let lowering () =
    Fmt.str "%a" (fun ppf () ->
        Pmc_compile.Report.pp_lowering_table ppf Config.default ~bytes:64) ()
    |> String.split_on_char '\n' |> List.filter (( <> ) "")
    |> List.map (fun l -> Line l)
  in
  { name = "table2";
    title = "Table II — annotation lowering and measured cost (64 B object)";
    measure =
      (fun () -> List.map (fun k -> (k, annotation_costs k)) Backends.all);
    render = (fun rows ->
      lowering ()
      @ [ Line ""; Line "measured cycles on an idle machine (64 B object):";
          table (backend_cols (-10)) (per_backend "")
            (List.map
               (fun a -> a :: List.map (fun (_, c) -> d (List.assoc a c)) rows)
               annotations);
          Line "paper: fences cost nothing on in-order cores; exits carry the \
                coherence work." ]);
    claims =
      [ ("fence costs 0 on every back-end",
         fun rows -> List.for_all (fun (k, _) -> cost rows k "fence" = 0) rows);
        ("SWCC and SPM exits carry the coherence work",
         fun rows ->
           let release = cost rows Backends.Seqcst "exit_x" in
           cost rows Backends.Swcc "exit_x" > release
           && cost rows Backends.Spm "exit_x" > release);
        ("DSM's exit_x is lazy: a bare lock release",
         fun rows -> cost rows Dsm "exit_x" = cost rows Seqcst "exit_x");
        ("DSM's flush carries the broadcast",
         fun rows -> cost rows Dsm "flush" > cost rows Dsm "exit_x") ] }

(* Rows are (app, noCC run, SWCC run) on the 32-core default machine. *)
let fig8 =
  let frac c (r : Runner.result) = Stats.fraction r.Runner.summary c in
  let stall c (r : Runner.result) = Stats.category_cycles r.Runner.summary c in
  let gain (_, (n : Runner.result), (s : Runner.result)) =
    100.0 -. (100.0 *. ratio s.Runner.wall n.Runner.wall)
  in
  let mean_gain rows =
    List.fold_left (fun acc r -> acc +. gain r) 0.0 rows
    /. float_of_int (List.length rows)
  in
  let every p = List.for_all (fun (_, n, s) -> p n s) in
  (* [key] ranks radiosity strictly above the other apps *)
  let radiosity_tops key rows =
    let r, others = List.partition (fun (a, _, _) -> a = "radiosity") rows in
    List.for_all (fun r -> List.for_all (fun o -> key r > key o) others) r
  in
  let row app setup (nocc : Runner.result) (r : Runner.result) =
    let pc c = 100.0 *. frac c r in
    [ app; setup; d r.Runner.wall;
      f1 (100.0 *. ratio r.Runner.wall nocc.Runner.wall);
      f1 (pc Busy); f1 (pc Private_read_stall); f1 (pc Shared_read_stall);
      f1 (pc Write_stall); f1 (pc Icache_stall);
      Printf.sprintf "%.2f" (pc Flush_overhead) ]
  in
  { name = "fig8";
    title = "Fig. 8 — execution time breakdown: no CC vs SWCC, 32 cores";
    measure = (fun () ->
      List.map
        (fun ((app : Runner.app), scale) ->
          let run backend = Runner.run app ~backend ~scale in
          (app.Runner.name, run Backends.Nocc, run Backends.Swcc))
        Pmc_apps.[ (Radiosity_like.app, 1024); (Raytrace_like.app, 256);
                   (Volrend_like.app, 256) ]);
    render = (fun rows ->
      [ table [ -10; -6; 9; 8; 6; 6; 6; 6; 7; 7 ]
          [ "app"; "setup"; "wall(cyc)"; "norm(%)"; "busy%"; "priv%"; "shar%";
            "wr%"; "icache%"; "flush%" ]
          (List.concat_map
             (fun (a, n, s) -> [ row a "noCC" n n; row a "SWCC" n s ]) rows);
        Line "";
        Line (Printf.sprintf
                "SWCC mean execution-time improvement: %.0f%%  (paper: 22%% on \
                 average; RADIOSITY 26%%, util 38%%->70%%)" (mean_gain rows));
        Line "flush-instruction overhead per app is the flush% column (paper: \
              0.66%, 0.00%, 0.01%)" ]);
    claims =
      [ ("every checksum matches the sequential reference",
         every (fun n s -> Runner.ok n && Runner.ok s));
        ("SWCC beats noCC on every app",
         every (fun n s -> s.Runner.wall < n.Runner.wall));
        ("SWCC raises utilization on every app",
         every (fun n s -> frac Busy s > frac Busy n));
        ("SWCC flush overhead stays below 6%",
         every (fun _ s -> frac Flush_overhead s < 0.06));
        ("SWCC's mean improvement is at least the paper's 22%",
         fun rows -> mean_gain rows >= 22.0);
        ("RADIOSITY improves least", radiosity_tops (fun r -> -.gain r));
        ("RADIOSITY keeps the largest share of its shared-read stall",
         radiosity_tops (fun (_, n, s) ->
             ratio (stall Shared_read_stall s) (stall Shared_read_stall n)));
        ("RADIOSITY has the largest flush overhead",
         radiosity_tops (fun (_, _, s) -> frac Flush_overhead s)) ] }

(* One writer and [readers] readers stream 64 elements through a FIFO
   (depth 8, 16 B): cycles per element, and whether every reader popped
   the pushed values in order.  On DSM the pointers are polled from
   local memory (Section VI-B). *)
let fifo_cost kind ~readers =
  let items = 64 in
  let elem i = Array.init 4 (fun w -> Int32.of_int ((i * 4) + w)) in
  let m = Machine.create { Config.default with cores = 8 } in
  let fifo =
    Pmc.Fifo.create (Backends.create kind m) ~name:"f" ~depth:8 ~elem_words:4
      ~readers
  in
  let in_order = ref true in
  Machine.spawn m ~core:0 (fun () ->
      for i = 1 to items do Pmc.Fifo.push fifo (elem i) done);
  for r = 0 to readers - 1 do
    Machine.spawn m ~core:(1 + r) (fun () ->
        for i = 1 to items do
          if Pmc.Fifo.pop fifo ~reader:r <> elem i then in_order := false
        done)
  done;
  Machine.run m;
  (Engine.wall_time (Machine.engine m) / items, !in_order)

let fig9 =
  let cost (k : Backends.kind) (_, cells) = fst (List.assoc k cells) in
  { name = "fig9";
    title = "Fig. 9 — MR/MW FIFO: cycles per element (depth 8, 16 B)";
    measure = (fun () ->
      List.map
        (fun readers ->
          (readers, List.map (fun k -> (k, fifo_cost k ~readers)) Backends.all))
        [ 1; 2; 4 ]);
    render = (fun rows ->
      [ table (backend_cols (-9)) (per_backend "readers")
          (List.map
             (fun (n, cells) -> d n :: List.map (fun (_, (c, _)) -> d c) cells)
             rows);
        Line "paper: the FIFO behaves correctly on all architectures; on DSM \
              the pointers are polled only from local memory." ]);
    claims =
      [ ("every reader pops every value in order on every back-end",
         List.for_all (fun (_, cells) ->
             List.for_all (fun (_, (_, ok)) -> ok) cells));
        ("DSM is the cheapest back-end but the seqcst reference",
         List.for_all (fun row ->
             List.for_all
               (fun k -> Backends.(k = Seqcst || k = Dsm)
                         || cost Dsm row < cost k row)
               Backends.all));
        ("DSM is at least 2.5x cheaper than SWCC",
         List.for_all (fun row -> 5 * cost Dsm row <= 2 * cost Swcc row));
        ("DSM is nearly flat in readers (< 10% growth)",
         fun rows ->
           let c = List.map (cost Dsm) rows in
           10 * List.fold_left max 0 c < 11 * List.fold_left min max_int c) ] }

type run = { backend : Backends.kind; wall : int; ok : bool }

(* Motion estimation on a MicroBlaze-like tile (8-byte cache lines): the
   search window is read hundreds of times per block, so staging it in
   the scratch-pad beats refetching it through the cache. *)
let fig10 =
  let cfg =
    { Config.default with dcache_sets = 64; dcache_ways = 2; line_bytes = 8 }
  in
  let wall rows k = (List.find (fun r -> r.backend = k) rows).wall in
  { name = "fig10";
    title = "Fig. 10 — motion estimation (full search), 32 cores";
    measure = (fun () ->
      List.map
        (fun backend ->
          let r = Runner.run ~cfg Pmc_apps.Motion_est.app ~backend ~scale:8 in
          { backend; wall = r.Runner.wall; ok = Runner.ok r })
        [ Backends.Nocc; Swcc; Spm ]);
    render = (fun rows ->
      [ Table
          ( [ -8; 10; 0 ],
            List.map
              (fun r ->
                [ Backends.to_string r.backend; d r.wall;
                  Printf.sprintf "cycles   (%.2fx vs SPM)"
                    (ratio r.wall (wall rows Spm)) ])
              rows );
        Line "paper: \"a significant performance increase when this \
              application is using SPMs, compared to the software cache \
              coherency setup\"." ]);
    claims =
      [ ("the found motion vectors equal the planted ones",
         List.for_all (fun r -> r.ok));
        ("SPM < SWCC < noCC",
         fun rows ->
           let w = wall rows in
           w Spm < w Swcc && w Swcc < w Nocc) ] }

(* Section VI-A's motivation: hardware coherency "limits scalability to
   many cores", so software coherency must scale.  Weak scaling with
   fixed volrend work per core, so ideal wall time is flat; efficiency
   T(1) / T(n) shows how much the shared SDRAM port erodes it.  Rows are
   (cores, noCC wall, SWCC wall). *)
let scaling =
  (* (cores, noCC efficiency, SWCC efficiency) *)
  let effs rows =
    let _, n1, s1 = List.hd rows in
    List.map (fun (c, n, s) -> (c, ratio n1 n, ratio s1 s)) rows
  in
  { name = "scaling";
    title = "Scaling — weak scaling efficiency, SWCC vs no-CC (volrend)";
    measure = (fun () ->
      List.map
        (fun cores ->
          let run backend =
            (Runner.run ~cfg:{ Config.default with cores }
               Pmc_apps.Volrend_like.app ~backend ~scale:256).Runner.wall
          in
          (cores, run Backends.Nocc, run Backends.Swcc))
        [ 1; 2; 4; 8; 16; 32; 64; 128 ]);
    render = (fun rows ->
      let p e = Printf.sprintf "%.0f%%" (100.0 *. e) in
      [ table [ -8; 12; 12; 10; 10 ]
          [ "cores"; "noCC(cyc)"; "SWCC(cyc)"; "noCC eff"; "SWCC eff" ]
          (List.map2
             (fun (c, n, s) (_, en, es) -> [ d c; d n; d s; p en; p es ])
             rows (effs rows));
        Line "paper motivation (Sec. VI-A): uncached shared data stops scaling \
              as the shared memory saturates; software cache coherency keeps \
              shared data cacheable and keeps scaling." ]);
    claims =
      [ ("both stay above 95% efficiency up to 32 cores",
         fun rows ->
           List.for_all (fun (c, en, es) -> c > 32 || (en > 0.95 && es > 0.95))
             (effs rows));
        ("SWCC is more efficient than noCC at 64 and 128 cores",
         fun rows ->
           List.for_all (fun (c, en, es) -> c < 64 || es > en) (effs rows)) ] }

(* Motion estimation on one tile geometry, SWCC against SPM: where the
   scratch-pad pays off and where a wide-line cache catches up.  The row
   keeps the scratch-pad latency the verdict hinges on. *)
let geometry (label, sets, ways, line_bytes, spm_lat) =
  let cfg =
    { Config.default with dcache_sets = sets; dcache_ways = ways; line_bytes;
      local_mem_cycles = spm_lat }
  in
  let run backend =
    (Runner.run ~cfg Pmc_apps.Motion_est.app ~backend ~scale:4).Runner.wall
  in
  (label, spm_lat, run Backends.Swcc, run Backends.Spm)

(* Wall cycles of [cores] cores taking a lock 20 times each. *)
let contended cores make =
  let m = Machine.create { Config.default with cores } in
  let acquire, release = make m in
  for c = 0 to cores - 1 do
    Machine.spawn m ~core:c (fun () ->
        for _ = 1 to 20 do
          acquire ();
          Engine.consume (Machine.engine m) Stats.Busy 30;
          release ()
        done)
  done;
  Machine.run m;
  Engine.wall_time (Machine.engine m)

let locks cores =
  let open Pmc_lock in
  ( cores,
    contended cores (fun m ->
        let l = Dlock.create m in
        ((fun () -> Dlock.acquire l), fun () -> Dlock.release l)),
    contended cores (fun m ->
        let l = Spinlock.create m in
        ((fun () -> Spinlock.acquire l), fun () -> Spinlock.release l)) )

(* The entry_ro atomic-size rule: a SWCC FIFO whose word-sized pointer
   polls skip the lock, against one that locks every read-only entry. *)
let ro_rule () =
  let fifo_wall () =
    let m = Machine.create { Config.default with cores = 4 } in
    let fifo =
      Pmc.Fifo.create (Backends.create Swcc m) ~name:"f" ~depth:4
        ~elem_words:2 ~readers:1
    in
    Machine.spawn m ~core:0 (fun () ->
        for i = 1 to 48 do
          Pmc.Fifo.push fifo [| Int32.of_int i; Int32.of_int i |]
        done);
    Machine.spawn m ~core:1 (fun () ->
        for _ = 1 to 48 do ignore (Pmc.Fifo.pop fifo ~reader:0) done);
    Machine.run m;
    Engine.wall_time (Machine.engine m)
  in
  let fast = fifo_wall () in
  let word = Pmc.Shared.atomic_threshold () in
  Pmc.Shared.set_atomic_threshold 0;
  let locked =
    Fun.protect fifo_wall ~finally:(fun () ->
        Pmc.Shared.set_atomic_threshold word)
  in
  (fast, locked)

(* Lazy vs eager release on DSM: two cores ping-pong a 64-byte object
   40 times each; the eager variant flushes it before every exit.  On
   the batched machine that flush is one multicast burst which marks
   every replica current, so the pollers' read-only entries skip the
   pull the lazy variant pays on every new version. *)
let release_wall ~eager =
  let m = Machine.create { Config.default with cores = 8 } in
  let api = Backends.create Dsm m in
  let o = Pmc.Api.alloc_words api ~name:"o" ~words:16 in
  for c = 0 to 1 do
    Machine.spawn m ~core:c (fun () ->
        for i = 0 to 39 do
          ignore
            (Pmc.Api.poll_until api o 0 (fun v ->
                 Int32.to_int v mod 2 = c && Int32.to_int v >= i * 2));
          Pmc.Api.with_x api o (fun () ->
              Pmc.Api.set_int api o 0 (Pmc.Api.get_int api o 0 + 1);
              if eager then Pmc.Api.flush api o)
        done)
  done;
  Machine.run m;
  Engine.wall_time (Machine.engine m)

(* Rows: the geometry sweep (label, SPM latency, SWCC, SPM), the lock
   walls (cores, dlock, spinlock), the FIFO with and without the
   entry_ro rule, and the lazy and eager release walls. *)
let ablate =
  { name = "ablate";
    title = "Ablations";
    measure = (fun () ->
      let geometries =
        List.map geometry
          [ ("1 KiB, 8 B lines", 64, 2, 8, 1);
            ("4 KiB, 8 B lines", 256, 2, 8, 1);
            ("4 KiB, 32 B lines", 64, 2, 32, 1);
            ("16 KiB, 32 B lines", 128, 4, 32, 1);
            ("16 KiB, 32 B, 2-cyc SPM", 128, 4, 32, 2) ]
      in
      let locks = List.map locks [ 2; 8; 32 ] in
      let ro = ro_rule () in
      let lazy_ = release_wall ~eager:false in
      (geometries, locks, ro, (lazy_, release_wall ~eager:true)));
    render = (fun (geometries, locks, (fast, locked), (lazy_, eager)) ->
      [ Line ""; Line "-- motion estimation vs cache geometry (SWCC vs SPM) --";
        table [ -26; 10; 10; 8 ] [ "tile geometry"; "SWCC"; "SPM"; "SPM wins" ]
          (List.map
             (fun (label, _, swcc, spm) ->
               [ label; d swcc; d spm; (if spm < swcc then "yes" else "no") ])
             geometries);
        Line "(\"it depends on many architectural parameters\" — Sec. VI-C: a \
              wide-line cache plus slow scratch-pad flips the verdict)";
        Line ""; Line "-- distributed lock [15] vs uncached spinlock --";
        table [ -8; 12; 12 ] [ "cores"; "dlock(cyc)"; "spinlock(cyc)" ]
          (List.map (fun (c, dl, sp) -> [ d c; d dl; d sp ]) locks);
        Line "";
        Line "-- entry_ro atomic fast path (FIFO on SWCC, 1 reader) --";
        Line (Printf.sprintf
                "word-atomic polls: %d cycles;  lock-every-entry_ro: %d \
                 cycles (%.2fx slower)" fast locked (ratio locked fast));
        Line ""; Line "-- lazy vs eager release (DSM ping-pong, 2 cores) --";
        Line (Printf.sprintf
                "lazy release: %d cycles;  eager (flush-on-exit): %d cycles"
                lazy_ eager);
        Line "(lazy keeps modifications local until the next acquire — Table \
              II's DSM exit_x; eager pays a broadcast per exit but lets \
              pollers progress without the lock)" ]);
    claims =
      [ ("SPM wins on every tile with a 1-cycle scratch-pad and loses with \
          a 2-cycle one",
         fun (g, _, _, _) ->
           List.for_all
             (fun (_, lat, swcc, spm) -> (spm < swcc) = (lat = 1)) g);
        ("the distributed lock beats the spinlock at every core count",
         fun (_, l, _, _) -> List.for_all (fun (_, dl, sp) -> dl < sp) l);
        ("word-atomic polls beat locking every entry_ro",
         fun (_, _, (fast, locked), _) -> fast < locked);
        ("eager release beats lazy release on the batched DSM",
         fun (_, _, _, (lazy_, eager)) -> eager < lazy_) ] }

let sections =
  [ Section fig1; Section table2; Section fig8; Section fig9; Section fig10;
    Section scaling; Section ablate ]

let section_name (Section f) = f.name
let section_names = List.map section_name sections
