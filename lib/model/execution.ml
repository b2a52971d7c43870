(* Executions E = (P, V, O, ≺) and the state-transition rules of Table I
   (Definitions 1, 3 and 4 of the paper).

   The execution is a growing DAG.  Edges carry the ordering kind that
   created them:

     - [Local p]  — locally visible order  p≺ℓ (Def. 6)
     - [Program]  — program order          ≺P  (Def. 5)
     - [Sync]     — synchronization order  ≺S  (Def. 7)
     - [Fence]    — fence order            ≺F  (Def. 8)

   The globally visible order ≺G (Def. 9) is the union of Program, Sync and
   Fence edges; the execution order ≺ (Def. 10) additionally includes the
   local edges of every process. *)

type edge_kind =
  | Local of int  (* visible only to this process *)
  | Program
  | Sync
  | Fence

let edge_kind_to_string = function
  | Local p -> Printf.sprintf "%d<l" p
  | Program -> "<P"
  | Sync -> "<S"
  | Fence -> "<F"

type edge = { src : int; kind : edge_kind; dst : int }

type t = {
  procs : int;
  locs : int;
  mutable ops : Op.t array;    (* index = Op.id *)
  mutable n_ops : int;
  mutable succs : (edge_kind * int) list array;  (* outgoing edges per op *)
  mutable preds : (edge_kind * int) list array;  (* incoming edges per op *)
}

let capacity_grow exec =
  if exec.n_ops = Array.length exec.ops then begin
    let n = max 16 (2 * Array.length exec.ops) in
    let dummy : Op.t =
      { id = -1; kind = Op.Fence; proc = 0; loc = Op.no_loc; value = 0 }
    in
    let ops' = Array.make n dummy in
    Array.blit exec.ops 0 ops' 0 exec.n_ops;
    exec.ops <- ops';
    let succs' = Array.make n [] in
    Array.blit exec.succs 0 succs' 0 exec.n_ops;
    exec.succs <- succs';
    let preds' = Array.make n [] in
    Array.blit exec.preds 0 preds' 0 exec.n_ops;
    exec.preds <- preds'
  end

let add_op_raw exec (kind : Op.kind) ~proc ~loc ~value : Op.t =
  capacity_grow exec;
  let o : Op.t = { id = exec.n_ops; kind; proc; loc; value } in
  exec.ops.(o.id) <- o;
  exec.n_ops <- exec.n_ops + 1;
  o

let add_edge exec ~src ~kind ~dst =
  if src <> dst then begin
    exec.succs.(src) <- (kind, dst) :: exec.succs.(src);
    exec.preds.(dst) <- (kind, src) :: exec.preds.(dst)
  end

(* Initialization (Def. 3): every location gets an initial operation that
   behaves like a write and a release; ≺ starts empty.  [init] gives the
   value each initial operation writes (default 0, zeroed memory). *)
let create ?(init = fun _ -> 0) ~procs ~locs () =
  let exec =
    { procs; locs; ops = [||]; n_ops = 0; succs = [||]; preds = [||] }
  in
  for v = 0 to locs - 1 do
    ignore (add_op_raw exec Op.Init ~proc:Op.env_proc ~loc:v ~value:(init v))
  done;
  exec

let op exec id = exec.ops.(id)
let n_ops exec = exec.n_ops

let iter_ops exec f =
  for i = 0 to exec.n_ops - 1 do
    f exec.ops.(i)
  done

let ops_list exec =
  List.init exec.n_ops (fun i -> exec.ops.(i))

let edges exec =
  let acc = ref [] in
  for src = exec.n_ops - 1 downto 0 do
    List.iter
      (fun (kind, dst) -> acc := { src; kind; dst } :: !acc)
      exec.succs.(src)
  done;
  !acc

(* The ordering rules of Table I.  For a new operation [o], every already
   issued operation matching the row pattern gains an edge of the table's
   kind towards [o].  Row by row (existing operation ≺ new operation):

     read    (r,p,v,∗):  ≺ℓ before new w, R, A, F of the same p (and v)
     write   (w,p,v,∗):  ≺ℓ before new r;  ≺P before new w, R;  ≺ℓ before F
     acquire (A,p,v,∗):  ≺ℓ before new r;  ≺P before new w, R;  ≺F before F
     release (R,∗,v,∗):  ≺S before new A (any process — see the table's
                          dagger note);  (R,p,v,∗) ≺F before new F
     fence   (F,p,∗,∗):  ≺F before new w, R, A

   Fences span all locations of the issuing process; all other rows apply
   to the new operation's location only.  [Init] operations participate as
   both write and release rows. *)
let rules_for (o : Op.t) : (Op.pattern * edge_kind) list =
  let p = o.proc and v = o.loc in
  let pat = Op.pattern in
  match o.kind with
  | Op.Read ->
      [ (pat ~kind:Op.Write ~proc:p ~loc:v (), Local p);
        (pat ~kind:Op.Acquire ~proc:p ~loc:v (), Local p) ]
  | Op.Write ->
      [ (pat ~kind:Op.Read ~proc:p ~loc:v (), Local p);
        (pat ~kind:Op.Write ~proc:p ~loc:v (), Program);
        (pat ~kind:Op.Acquire ~proc:p ~loc:v (), Program);
        (pat ~kind:Op.Fence ~proc:p (), Fence) ]
  | Op.Release ->
      [ (pat ~kind:Op.Read ~proc:p ~loc:v (), Local p);
        (pat ~kind:Op.Write ~proc:p ~loc:v (), Program);
        (pat ~kind:Op.Acquire ~proc:p ~loc:v (), Program);
        (pat ~kind:Op.Fence ~proc:p (), Fence) ]
  | Op.Acquire ->
      [ (pat ~kind:Op.Read ~proc:p ~loc:v (), Local p);
        (* dagger note: an acquire is ≺S-after releases of v by *any*
           process, not just its own *)
        (pat ~kind:Op.Release ~loc:v (), Sync);
        (pat ~kind:Op.Fence ~proc:p (), Fence) ]
  | Op.Fence ->
      [ (pat ~kind:Op.Read ~proc:p (), Local p);
        (pat ~kind:Op.Write ~proc:p (), Local p);
        (pat ~kind:Op.Acquire ~proc:p (), Fence);
        (pat ~kind:Op.Release ~proc:p (), Fence) ]
  | Op.Init -> []

(* State transition (Def. 4): append [o] and add the Table-I edges from all
   matching previously issued operations. *)
let execute exec (kind : Op.kind) ~proc ?(loc = Op.no_loc) ?(value = 0) () :
    Op.t =
  if proc < 0 || proc >= exec.procs then
    invalid_arg "Execution.execute: bad process";
  (match kind with
  | Op.Fence -> ()
  | Op.Init -> invalid_arg "Execution.execute: cannot issue Init"
  | _ ->
      if loc < 0 || loc >= exec.locs then
        invalid_arg "Execution.execute: bad location");
  let o = add_op_raw exec kind ~proc ~loc ~value in
  let rules = rules_for o in
  (* edges are added in (source id, rule) order *)
  for i = 0 to o.id - 1 do
    let a = exec.ops.(i) in
    List.iter
      (fun (pattern, kind) ->
        if Op.matches pattern a then add_edge exec ~src:i ~kind ~dst:o.id)
      rules
  done;
  o

(* Convenience wrappers, one per operation kind. *)
let read exec ~proc ~loc ~value = execute exec Op.Read ~proc ~loc ~value ()
let write exec ~proc ~loc ~value = execute exec Op.Write ~proc ~loc ~value ()
let acquire exec ~proc ~loc = execute exec Op.Acquire ~proc ~loc ()
let release exec ~proc ~loc = execute exec Op.Release ~proc ~loc ()
let fence exec ~proc = execute exec Op.Fence ~proc ()

let pp ppf exec =
  Fmt.pf ppf "execution: %d procs, %d locs, %d ops@." exec.procs exec.locs
    exec.n_ops;
  iter_ops exec (fun o -> Fmt.pf ppf "  %a@." Op.pp o);
  List.iter
    (fun { src; kind; dst } ->
      Fmt.pf ppf "  %a %s %a@." Op.pp exec.ops.(src)
        (edge_kind_to_string kind)
        Op.pp exec.ops.(dst))
    (edges exec)
