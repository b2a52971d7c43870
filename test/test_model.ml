(* Tests of the formal PMC model: operations and patterns (Defs. 1-3),
   the Table I transition rules cell by cell, and the dependency graphs of
   Figs. 2-5 of the paper, asserted edge by edge. *)

open Pmc_model

let kinds_between exec (a : Op.t) (b : Op.t) : Execution.edge_kind list =
  List.filter_map
    (fun (k, dst) -> if dst = b.Op.id then Some k else None)
    exec.Execution.succs.(a.Op.id)

let has_edge exec a b k = List.mem k (kinds_between exec a b)
let no_edge exec a b = kinds_between exec a b = []

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual

(* ------------------------------------------------------------------ *)
(* patterns *)

let test_pattern_matching () =
  let w : Op.t = { id = 1; kind = Op.Write; proc = 2; loc = 3; value = 7 } in
  check_bool "write matches (w,*,*,*)" true
    (Op.matches (Op.pattern ~kind:Op.Write ()) w);
  check_bool "write matches (w,2,3,*)" true
    (Op.matches (Op.pattern ~kind:Op.Write ~proc:2 ~loc:3 ()) w);
  check_bool "write rejects wrong proc" false
    (Op.matches (Op.pattern ~kind:Op.Write ~proc:1 ()) w);
  check_bool "write rejects wrong loc" false
    (Op.matches (Op.pattern ~loc:0 ()) w);
  check_bool "write rejects read pattern" false
    (Op.matches (Op.pattern ~kind:Op.Read ()) w);
  check_bool "value pattern matches" true
    (Op.matches (Op.pattern ~value:7 ()) w);
  check_bool "value pattern rejects" false
    (Op.matches (Op.pattern ~value:8 ()) w)

let test_init_acts_as_write_and_release () =
  let i : Op.t =
    { id = 0; kind = Op.Init; proc = Op.env_proc; loc = 0; value = 0 }
  in
  check_bool "init is a write" true (Op.is_write i);
  check_bool "init is a release" true (Op.is_release i);
  check_bool "init is not a read" false (Op.is_read i);
  check_bool "init matches (w,p,v,*) for any p" true
    (Op.matches (Op.pattern ~kind:Op.Write ~proc:5 ~loc:0 ()) i);
  check_bool "init matches (R,*,v,*)" true
    (Op.matches (Op.pattern ~kind:Op.Release ~loc:0 ()) i)

let test_initialization () =
  (* Def. 3: every location starts with exactly one init op; ≺ is empty *)
  let e = Execution.create ~procs:2 ~locs:3 () in
  Alcotest.(check int) "one op per location" 3 (Execution.n_ops e);
  Execution.iter_ops e (fun o ->
      check_bool "initial op is Init" true (o.Op.kind = Op.Init));
  Alcotest.(check int) "no edges initially" 0
    (List.length (Execution.edges e))

(* ------------------------------------------------------------------ *)
(* Table I, cell by cell.  For each pair (existing row, new column) build
   a two-op execution and assert the direct edge (or its absence). *)

let fresh () = Execution.create ~procs:2 ~locs:2 ()

let test_table1_read_row () =
  (* read ≺ℓ before new w / R / A / F; no read → read edge *)
  let e = fresh () in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:0 in
  let w = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  check_bool "r <l w" true (has_edge e r w (Execution.Local 0));
  let e = fresh () in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:0 in
  let r2 = Execution.read e ~proc:0 ~loc:0 ~value:0 in
  check_bool "r -> r unordered" true (no_edge e r r2);
  let e = fresh () in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:0 in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  check_bool "r <l A" true (has_edge e r a (Execution.Local 0));
  let e = fresh () in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:0 in
  let rel = Execution.release e ~proc:0 ~loc:0 in
  check_bool "r <l R" true (has_edge e r rel (Execution.Local 0));
  ignore a;
  let e = fresh () in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:0 in
  let f = Execution.fence e ~proc:0 in
  check_bool "r <l F" true (has_edge e r f (Execution.Local 0))

let test_table1_write_row () =
  let e = fresh () in
  let w = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:1 in
  check_bool "w <l r" true (has_edge e w r (Execution.Local 0));
  let e = fresh () in
  let w1 = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let w2 = Execution.write e ~proc:0 ~loc:0 ~value:2 in
  check_bool "w <P w" true (has_edge e w1 w2 Execution.Program);
  let e = fresh () in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  let w = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let rel = Execution.release e ~proc:0 ~loc:0 in
  check_bool "w <P R" true (has_edge e w rel Execution.Program);
  ignore a;
  let e = fresh () in
  let w = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let f = Execution.fence e ~proc:0 in
  check_bool "w <l F (write before fence is local)" true
    (has_edge e w f (Execution.Local 0));
  (* writes of different processes are unordered *)
  let e = fresh () in
  let w1 = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let w2 = Execution.write e ~proc:1 ~loc:0 ~value:2 in
  check_bool "w(p0) -> w(p1) unordered" true (no_edge e w1 w2);
  (* writes to different locations by one process are unordered *)
  let e = fresh () in
  let w1 = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let w2 = Execution.write e ~proc:0 ~loc:1 ~value:2 in
  check_bool "w(v0) -> w(v1) unordered (Def. 5)" true (no_edge e w1 w2)

let test_table1_acquire_row () =
  let e = fresh () in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:0 in
  check_bool "A <l r" true (has_edge e a r (Execution.Local 0));
  let e = fresh () in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  let w = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  check_bool "A <P w" true (has_edge e a w Execution.Program);
  let e = fresh () in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  let rel = Execution.release e ~proc:0 ~loc:0 in
  check_bool "A <P R" true (has_edge e a rel Execution.Program);
  let e = fresh () in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  let f = Execution.fence e ~proc:0 in
  check_bool "A <F F" true (has_edge e a f Execution.Fence)

let test_table1_release_row () =
  (* dagger note: an acquire is ≺S-after releases of the location by any
     process *)
  let e = fresh () in
  let a0 = Execution.acquire e ~proc:0 ~loc:0 in
  let rel0 = Execution.release e ~proc:0 ~loc:0 in
  let a1 = Execution.acquire e ~proc:1 ~loc:0 in
  check_bool "R(p0) <S A(p1)" true (has_edge e rel0 a1 Execution.Sync);
  ignore a0;
  let e = fresh () in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  let rel = Execution.release e ~proc:0 ~loc:0 in
  let f = Execution.fence e ~proc:0 in
  check_bool "R <F F" true (has_edge e rel f Execution.Fence);
  ignore a;
  (* releases of other locations do not synchronize *)
  let e = fresh () in
  let a0 = Execution.acquire e ~proc:0 ~loc:0 in
  let rel0 = Execution.release e ~proc:0 ~loc:0 in
  let a1 = Execution.acquire e ~proc:1 ~loc:1 in
  check_bool "R(v0) -> A(v1) unordered" true (no_edge e rel0 a1);
  ignore a0

let test_table1_fence_row () =
  let e = fresh () in
  let f = Execution.fence e ~proc:0 in
  let w = Execution.write e ~proc:0 ~loc:1 ~value:1 in
  check_bool "F <F w (any location)" true (has_edge e f w Execution.Fence);
  let e = fresh () in
  let f = Execution.fence e ~proc:0 in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  check_bool "F <F A" true (has_edge e f a Execution.Fence);
  let e = fresh () in
  let a = Execution.acquire e ~proc:0 ~loc:0 in
  let f = Execution.fence e ~proc:0 in
  let rel = Execution.release e ~proc:0 ~loc:0 in
  check_bool "F <F R" true (has_edge e f rel Execution.Fence);
  ignore a;
  (* fences do not order another process's operations *)
  let e = fresh () in
  let f = Execution.fence e ~proc:0 in
  let w = Execution.write e ~proc:1 ~loc:0 ~value:1 in
  check_bool "F(p0) -> w(p1) unordered" true (no_edge e f w)

(* ------------------------------------------------------------------ *)
(* The figures *)

(* Fig. 2: two writes to X by one process — program order chain. *)
let test_fig2 () =
  let e = Execution.create ~procs:1 ~locs:1 () in
  let init = Execution.op e 0 in
  let w1 = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let w2 = Execution.write e ~proc:0 ~loc:0 ~value:2 in
  check_bool "init <P X=1" true (has_edge e init w1 Execution.Program);
  check_bool "X=1 <P X=2" true (has_edge e w1 w2 Execution.Program);
  check_bool "init <P X=2 (transitive, present in full graph)" true
    (has_edge e init w2 Execution.Program);
  (* the paper's figures are transitively reduced *)
  let reduced = Order.transitive_reduction Order.Full e in
  Alcotest.(check int) "reduced graph has 2 edges" 2 (List.length reduced)

(* Fig. 3: write, read, write — the read is locally ordered. *)
let test_fig3 () =
  let e = Execution.create ~procs:1 ~locs:1 () in
  let w1 = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:1 in
  let w2 = Execution.write e ~proc:0 ~loc:0 ~value:2 in
  check_bool "X=1 <l X?" true (has_edge e w1 r (Execution.Local 0));
  check_bool "X? <l X=2" true (has_edge e r w2 (Execution.Local 0));
  check_bool "X=1 <P X=2" true (has_edge e w1 w2 Execution.Program);
  (* the read can only return 1 (Def. 12) *)
  Alcotest.(check (list int)) "read must return 1" [ 1 ]
    (Observe.readable_values e r)

(* Fig. 4: exclusive access by two processes; the depicted interleaving is
   p2 first, then p1 reads 2. *)
let test_fig4 () =
  let e = Execution.create ~procs:2 ~locs:1 () in
  let init = Execution.op e 0 in
  (* process 2 (p1 here) acquires first and writes 1 then 2 *)
  let a2 = Execution.acquire e ~proc:1 ~loc:0 in
  let w1 = Execution.write e ~proc:1 ~loc:0 ~value:1 in
  let w2 = Execution.write e ~proc:1 ~loc:0 ~value:2 in
  let r2 = Execution.release e ~proc:1 ~loc:0 in
  (* then process 1 (p0) acquires and reads *)
  let a1 = Execution.acquire e ~proc:0 ~loc:0 in
  let rd = Execution.read e ~proc:0 ~loc:0 ~value:2 in
  let r1 = Execution.release e ~proc:0 ~loc:0 in
  check_bool "init <S acq(p2)" true (has_edge e init a2 Execution.Sync);
  check_bool "acq <P X=1" true (has_edge e a2 w1 Execution.Program);
  check_bool "X=1 <P X=2" true (has_edge e w1 w2 Execution.Program);
  check_bool "X=2 <P rel" true (has_edge e w2 r2 Execution.Program);
  check_bool "rel(p2) <S acq(p1)" true (has_edge e r2 a1 Execution.Sync);
  check_bool "acq(p1) <l X?" true (has_edge e a1 rd (Execution.Local 0));
  check_bool "X? <l rel(p1)" true (has_edge e rd r1 (Execution.Local 0));
  (* the read sees the last write 2, deterministically *)
  Alcotest.(check (list int)) "read returns 2" [ 2 ]
    (Observe.readable_values e rd);
  check_bool "no data race" true (Observe.race_free e)

(* Fig. 5: the communication pattern with fences. *)
let test_fig5 () =
  let e = Execution.create ~procs:2 ~locs:2 () in
  let x = 0 and f = 1 in
  (* process 1 *)
  let acq_x = Execution.acquire e ~proc:0 ~loc:x in
  let w42 = Execution.write e ~proc:0 ~loc:x ~value:42 in
  let fen1 = Execution.fence e ~proc:0 in
  let rel_x = Execution.release e ~proc:0 ~loc:x in
  let acq_f = Execution.acquire e ~proc:0 ~loc:f in
  let wf = Execution.write e ~proc:0 ~loc:f ~value:1 in
  let rel_f = Execution.release e ~proc:0 ~loc:f in
  (* process 2 *)
  let rf = Execution.read e ~proc:1 ~loc:f ~value:1 in
  let fen2 = Execution.fence e ~proc:1 in
  let acq_x2 = Execution.acquire e ~proc:1 ~loc:x in
  let rx = Execution.read e ~proc:1 ~loc:x ~value:42 in
  let rel_x2 = Execution.release e ~proc:1 ~loc:x in
  check_bool "acq X <P X=42" true (has_edge e acq_x w42 Execution.Program);
  check_bool "X=42 <l fence" true (has_edge e w42 fen1 (Execution.Local 0));
  check_bool "fence <F rel X" true (has_edge e fen1 rel_x Execution.Fence);
  check_bool "fence <F acq f" true (has_edge e fen1 acq_f Execution.Fence);
  check_bool "fence <F f=1" true (has_edge e fen1 wf Execution.Fence);
  check_bool "acq f <P f=1" true (has_edge e acq_f wf Execution.Program);
  check_bool "f=1 <P rel f" true (has_edge e wf rel_f Execution.Program);
  check_bool "f? <l fence2" true (has_edge e rf fen2 (Execution.Local 1));
  check_bool "fence2 <F acq X" true (has_edge e fen2 acq_x2 Execution.Fence);
  check_bool "acq X2 <l X?" true (has_edge e acq_x2 rx (Execution.Local 1));
  check_bool "rel X <S acq X2" true (has_edge e rel_x acq_x2 Execution.Sync);
  check_bool "X? <l rel X2" true (has_edge e rx rel_x2 (Execution.Local 1));
  (* the guarantee: process 2's read of X can only return 42 *)
  Alcotest.(check (list int)) "p2 reads 42" [ 42 ]
    (Observe.readable_values e rx);
  (* and the two acquires of X are fence-ordered globally *)
  check_bool "acq X globally before acq X2" true
    (Order.reaches Order.Global e acq_x.Op.id acq_x2.Op.id)

(* ------------------------------------------------------------------ *)
(* order queries *)

let test_views () =
  (* local edges are visible only to their process *)
  let e = fresh () in
  let w = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:1 in
  check_bool "p0 sees w before r" true
    (Order.reaches (Order.View 0) e w.Op.id r.Op.id);
  check_bool "p1 does not see the local edge" false
    (Order.reaches (Order.View 1) e w.Op.id r.Op.id);
  check_bool "global order does not include it" false
    (Order.reaches Order.Global e w.Op.id r.Op.id);
  check_bool "full order includes it" true
    (Order.reaches Order.Full e w.Op.id r.Op.id)

let test_acyclic_and_topological () =
  let e = fresh () in
  for i = 1 to 10 do
    ignore (Execution.write e ~proc:(i mod 2) ~loc:(i mod 2) ~value:i)
  done;
  check_bool "execution is acyclic" true (Dag.is_acyclic e);
  Alcotest.(check (list int)) "ids are topological" (List.init 12 Fun.id)
    (Dag.topological e)

let test_gdo_gpo () =
  (* lock-wrapped writes by two processes: GDO holds *)
  let e = fresh () in
  ignore (Execution.acquire e ~proc:0 ~loc:0);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.release e ~proc:0 ~loc:0);
  ignore (Execution.acquire e ~proc:1 ~loc:0);
  ignore (Execution.write e ~proc:1 ~loc:0 ~value:2);
  ignore (Execution.release e ~proc:1 ~loc:0);
  check_bool "GDO: writes to v totally ordered" true (Dag.gdo_total e 0);
  (* unlocked writes by two processes: GDO broken *)
  let e' = fresh () in
  ignore (Execution.write e' ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.write e' ~proc:1 ~loc:0 ~value:2);
  check_bool "no GDO without locks" false (Dag.gdo_total e' 0);
  (* GPO: a fence orders the synchronization operations of one process
     across locations (the EC relaxation the paper recovers: "acquire/
     releases of different locations by the same process are not ordered,
     unless a fence is applied") *)
  let e'' = fresh () in
  ignore (Execution.acquire e'' ~proc:0 ~loc:0);
  let rel0 = Execution.release e'' ~proc:0 ~loc:0 in
  ignore (Execution.fence e'' ~proc:0);
  let acq1 = Execution.acquire e'' ~proc:0 ~loc:1 in
  check_bool "GPO: rel(v0) globally before acq(v1) across the fence" true
    (List.mem (rel0.Op.id, acq1.Op.id) (Dag.gpo_pairs e'' 0));
  let e3 = fresh () in
  ignore (Execution.acquire e3 ~proc:0 ~loc:0);
  ignore (Execution.release e3 ~proc:0 ~loc:0);
  ignore (Execution.acquire e3 ~proc:0 ~loc:1);
  check_bool "no GPO pair without fence" true (Dag.gpo_pairs e3 0 = [])

(* A plain write enters a fence only locally (Table I, write row, column
   F is ≺ℓ): the cross-location write-before-write guarantee is visible in
   the writer's own view, and implementations realize it globally when
   executing the fence (e.g. Fig. 1's read-back).  This test documents the
   subtlety. *)
let test_fence_local_in_edge () =
  let e = fresh () in
  let w = Execution.write e ~proc:0 ~loc:0 ~value:1 in
  ignore (Execution.fence e ~proc:0);
  let w' = Execution.write e ~proc:0 ~loc:1 ~value:2 in
  check_bool "w before w' in p0's view" true
    (Order.reaches (Order.View 0) e w.Op.id w'.Op.id);
  check_bool "w before w' is not globally derivable from the table alone"
    false
    (Order.reaches Order.Global e w.Op.id w'.Op.id)

let tests =
  [
    Alcotest.test_case "pattern matching" `Quick test_pattern_matching;
    Alcotest.test_case "init acts as write+release" `Quick
      test_init_acts_as_write_and_release;
    Alcotest.test_case "initialization (Def. 3)" `Quick test_initialization;
    Alcotest.test_case "Table I: read row" `Quick test_table1_read_row;
    Alcotest.test_case "Table I: write row" `Quick test_table1_write_row;
    Alcotest.test_case "Table I: acquire row" `Quick test_table1_acquire_row;
    Alcotest.test_case "Table I: release row" `Quick test_table1_release_row;
    Alcotest.test_case "Table I: fence row" `Quick test_table1_fence_row;
    Alcotest.test_case "Fig. 2 graph" `Quick test_fig2;
    Alcotest.test_case "Fig. 3 graph" `Quick test_fig3;
    Alcotest.test_case "Fig. 4 graph" `Quick test_fig4;
    Alcotest.test_case "Fig. 5 graph" `Quick test_fig5;
    Alcotest.test_case "per-process views" `Quick test_views;
    Alcotest.test_case "acyclicity + topological ids" `Quick
      test_acyclic_and_topological;
    Alcotest.test_case "GDO / GPO (Sec. IV-E)" `Quick test_gdo_gpo;
    Alcotest.test_case "fence in-edge subtlety" `Quick
      test_fence_local_in_edge;
  ]

(* ------------------------------------------------------------------ *)
(* property tests *)

let gen_ops =
  QCheck.(
    list_of_size Gen.(int_range 1 60)
      (quad (int_range 0 2) (int_range 0 2) (int_range 0 2) (int_range 0 9)))

(* Replay arbitrary (kind, proc, loc, value) streams; lock operations are
   made well-formed on the fly. *)
let replay ops =
  let e = Execution.create ~procs:3 ~locs:3 () in
  let held = Array.make 3 None in
  List.iter
    (fun (k, p, v, value) ->
      match k with
      | 0 -> ignore (Execution.read e ~proc:p ~loc:v ~value)
      | 1 -> ignore (Execution.write e ~proc:p ~loc:v ~value)
      | _ -> (
          match held.(p) with
          | None ->
              ignore (Execution.acquire e ~proc:p ~loc:v);
              held.(p) <- Some v
          | Some l ->
              ignore (Execution.release e ~proc:p ~loc:l);
              held.(p) <- None))
    ops;
  e

let prop_acyclic =
  QCheck.Test.make ~name:"random executions stay acyclic" ~count:200 gen_ops
    (fun ops -> Dag.is_acyclic (replay ops))

let prop_edges_point_forward =
  QCheck.Test.make ~name:"edges always point to newer ops" ~count:200 gen_ops
    (fun ops ->
      let e = replay ops in
      List.for_all
        (fun (ed : Execution.edge) -> ed.Execution.src < ed.Execution.dst)
        (Execution.edges e))

let prop_last_writes_nonempty =
  QCheck.Test.make ~name:"last-write set is never empty (Def. 11)"
    ~count:200 gen_ops (fun ops ->
      let e = replay ops in
      List.for_all
        (fun (o : Op.t) ->
          (not (Op.is_read o)) || Observe.last_writes e o <> [])
        (Execution.ops_list e))

let prop_reduction_preserves_reachability =
  QCheck.Test.make ~name:"transitive reduction preserves reachability"
    ~count:60 gen_ops (fun ops ->
      let e = replay ops in
      let reduced = Order.transitive_reduction Order.Full e in
      let reach_in_reduced a b =
        (* BFS over the reduced edge list *)
        let n = Execution.n_ops e in
        let adj = Array.make n [] in
        List.iter
          (fun (ed : Execution.edge) ->
            adj.(ed.Execution.src) <- ed.Execution.dst :: adj.(ed.Execution.src))
          reduced;
        let seen = Array.make n false in
        let rec go u = u = b || (not seen.(u)) && (seen.(u) <- true;
                                                   List.exists go adj.(u))
        in
        seen.(a) <- true;
        List.exists go adj.(a)
      in
      List.for_all
        (fun (ed : Execution.edge) ->
          reach_in_reduced ed.Execution.src ed.Execution.dst)
        (Execution.edges e))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_acyclic;
      prop_edges_point_forward;
      prop_last_writes_nonempty;
      prop_reduction_preserves_reachability;
    ]

let suite = ("model", tests @ props)
