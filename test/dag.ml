(* Whole-DAG queries over an execution that only the test oracles need:
   the bitset reachability closure [Observe] answers Defs. 11-12 on, the
   backward ancestor pass of [History_oracle], acyclicity, and the GDO /
   GPO properties of Section IV-E.  The library keeps the pairwise
   queries ([Order.reaches], [Order.concurrent]) and the reduction the
   figures are drawn with. *)

open Pmc_model

(* Bytes-backed bitsets, unioned a 64-bit word at a time.  The closure
   below spends almost all of its time in [union_into]; on a [bool array]
   the same union costs one branch per element instead of one OR per
   64. *)
module Bits = struct
  type t = { words : Bytes.t; bits : int }

  let create bits =
    { words = Bytes.make (((bits + 63) / 64) * 8) '\000'; bits }

  let length t = t.bits
  let get t i = Bytes.get_uint8 t.words (i lsr 3) land (1 lsl (i land 7)) <> 0

  let set t i =
    Bytes.set_uint8 t.words (i lsr 3)
      (Bytes.get_uint8 t.words (i lsr 3) lor (1 lsl (i land 7)))

  (* [into] may be shorter than [src] (rows of a growing closure): only
     the prefix covering [into] is unioned, which is exactly right when
     [src]'s extra bits are known to be clear. *)
  let union_into ~(into : t) (src : t) =
    let n = min (Bytes.length into.words) (Bytes.length src.words) in
    let i = ref 0 in
    while !i < n do
      let w =
        Int64.logor
          (Bytes.get_int64_ne into.words !i)
          (Bytes.get_int64_ne src.words !i)
      in
      Bytes.set_int64_ne into.words !i w;
      i := !i + 8
    done
end

(* Reachability closure under one relation: one bitset row per operation
   holding its ancestor set.  Ids are issue-ordered and every edge points
   from a lower id to a higher one, so row [i] is the union of the rows of
   its visible predecessors plus the predecessors themselves — each row is
   built once, in id order, by word-at-a-time unions.  A row's length may
   be below the execution's size: only lower ids can be ancestors. *)
type closure = Bits.t array

let closure (rel : Order.relation) (exec : Execution.t) : closure =
  let n = Execution.n_ops exec in
  let rows = Array.make n (Bits.create 1) in
  for i = 0 to n - 1 do
    (* every predecessor has a lower id, so its row is already final *)
    let row = Bits.create (max 1 i) in
    List.iter
      (fun (k, p) ->
        if Order.edge_visible rel k then begin
          Bits.union_into ~into:row rows.(p);
          Bits.set row p
        end)
      exec.Execution.preds.(i);
    rows.(i) <- row
  done;
  rows

(* [precedes c a b] — a ≺ b under the closure's relation.  O(1). *)
let precedes (c : closure) (a : int) (b : int) : bool =
  a <> b && a < Bits.length c.(b) && Bits.get c.(b) a

let ancestors_row (c : closure) (b : int) : Bits.t = c.(b)

(* Every edge into an operation is created when that operation is issued,
   so the set of ancestors of an operation is frozen the moment it
   exists: one backward traversal answers every "does x precede b?"
   question about a fixed b, without a DFS per source. *)
let ancestors (rel : Order.relation) (exec : Execution.t) (b : int) :
    bool array =
  let anc = Array.make (Execution.n_ops exec) false in
  let rec go u =
    List.iter
      (fun (k, p) ->
        if Order.edge_visible rel k && not anc.(p) then begin
          anc.(p) <- true;
          go p
        end)
      exec.Execution.preds.(u)
  in
  go b;
  anc

(* ≺ must remain a partial order: the DAG may not contain a cycle.  A cycle
   would mean the program's ordering requirements are contradictory. *)
let is_acyclic (exec : Execution.t) : bool =
  let n = Execution.n_ops exec in
  let state = Array.make n 0 in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let rec go u =
    match state.(u) with
    | 1 -> false
    | 2 -> true
    | _ ->
        state.(u) <- 1;
        let ok =
          List.for_all (fun (_, v) -> go v) exec.Execution.succs.(u)
        in
        state.(u) <- 2;
        ok
  in
  let rec all u = u >= n || (go u && all (u + 1)) in
  all 0

(* Topological order of the full relation (ids are already issue-ordered and
   edges only ever point from earlier to later ids, so this is the
   identity — asserted here rather than assumed by callers). *)
let topological (exec : Execution.t) : int list =
  Execution.iter_ops exec (fun o ->
      List.iter
        (fun (_, dst) -> assert (dst > o.Op.id))
        exec.Execution.succs.(o.Op.id));
  List.init (Execution.n_ops exec) Fun.id

(* The two properties of Section IV-E:

   GDO (Global Data Order): per location, all globally visible orderings of
   operations on that location form a total order across processes once the
   program is data-race free.  [gdo_total exec v] checks the writes of v.

   GPO (Global Process Order): per process, fences give a cross-location
   order.  [gpo_pairs exec p] lists the fence-ordered pairs of p. *)
let writes_of exec v =
  List.filter (fun (o : Op.t) -> Op.is_write o && o.loc = v)
    (Execution.ops_list exec)

let gdo_total (exec : Execution.t) (v : int) : bool =
  let ws = writes_of exec v in
  List.for_all
    (fun (a : Op.t) ->
      List.for_all
        (fun (b : Op.t) ->
          a.id = b.id
          || Order.reaches Global exec a.id b.id
          || Order.reaches Global exec b.id a.id)
        ws)
    ws

let gpo_pairs (exec : Execution.t) (p : int) : (int * int) list =
  let ops =
    List.filter
      (fun (o : Op.t) -> o.proc = p && not (Op.is_fence o))
      (Execution.ops_list exec)
  in
  List.concat_map
    (fun (a : Op.t) ->
      List.filter_map
        (fun (b : Op.t) ->
          if a.id <> b.id && a.loc <> b.loc
             && Order.reaches Global exec a.id b.id
          then Some (a.id, b.id)
          else None)
        ops)
    ops
