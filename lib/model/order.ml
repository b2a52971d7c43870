(* Queries over the ordering relations of an execution (Definitions 5-10).

   [global] is ≺G = ≺P ∪ ≺S ∪ ≺F — what every process agrees on.
   [view p] is p≺ = ≺G ∪ p≺ℓ — the execution order as seen by process p.
   [full] is ≺ = ≺G ∪ all local orders (Def. 10). *)

type relation = Global | View of int | Full

let edge_visible (rel : relation) (k : Execution.edge_kind) =
  match rel, k with
  | _, (Execution.Program | Execution.Sync | Execution.Fence) -> true
  | Global, Execution.Local _ -> false
  | View p, Execution.Local q -> p = q
  | Full, Execution.Local _ -> true

(* [reaches rel exec a b] — is there a path a ≺ ... ≺ b using only edges
   visible under [rel]?  DFS; the executions built here are small (litmus
   traces and the paper's figures), so no closure is cached. *)
let reaches (rel : relation) (exec : Execution.t) (a : int) (b : int) : bool =
  if a = b then false
  else begin
    let n = Execution.n_ops exec in
    let seen = Array.make n false in
    let rec go u =
      u = b
      || (not seen.(u))
         && begin
              seen.(u) <- true;
              List.exists
                (fun (k, v) -> edge_visible rel k && go v)
                exec.Execution.succs.(u)
            end
    in
    (* mark a as seen up-front so cycles through a terminate *)
    seen.(a) <- true;
    List.exists
      (fun (k, v) -> edge_visible rel k && go v)
      exec.Execution.succs.(a)
  end

let concurrent rel exec a b =
  a <> b && (not (reaches rel exec a b)) && not (reaches rel exec b a)

(* Transitive reduction under [rel]: keep edge (a, b) only if there is no
   other path from a to b.  Used to render the paper's figures (which are
   "transitively reduced; all redundant orderings are left out"). *)
let transitive_reduction (rel : relation) (exec : Execution.t) :
    Execution.edge list =
  (* An edge (src, dst) is redundant if a path of length >= 2 from src to
     dst exists under [rel].  Parallel edges of different kinds between the
     same pair are collapsed to one, matching the figures. *)
  let keep ({ src; dst; kind } : Execution.edge) =
    edge_visible rel kind
    &&
    let n = Execution.n_ops exec in
    let seen = Array.make n false in
    let rec go u =
      u = dst
      || (not seen.(u))
         && begin
              seen.(u) <- true;
              List.exists
                (fun (k, v) -> edge_visible rel k && go v)
                exec.Execution.succs.(u)
            end
    in
    seen.(src) <- true;
    let long_path =
      List.exists
        (fun (k, v) -> edge_visible rel k && v <> dst && go v)
        exec.Execution.succs.(src)
    in
    not long_path
  in
  let seen_pair = Hashtbl.create 64 in
  List.filter
    (fun (e : Execution.edge) ->
      keep e
      &&
      let key = (e.src, e.dst) in
      if Hashtbl.mem seen_pair key then false
      else begin
        Hashtbl.add seen_pair key ();
        true
      end)
    (Execution.edges exec)
