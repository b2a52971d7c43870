(* Graphviz export of executions — renders the dependency graphs the
   paper draws in Figs. 2-5, transitively reduced under ≺ like the
   figures. *)

let node_label (o : Op.t) =
  match o.Op.kind with
  | Op.Init -> Printf.sprintf "init\\nv%d=%d" o.Op.loc o.Op.value
  | Op.Read -> Printf.sprintf "r p%d\\nv%d=%d" o.Op.proc o.Op.loc o.Op.value
  | Op.Write -> Printf.sprintf "w p%d\\nv%d:=%d" o.Op.proc o.Op.loc o.Op.value
  | Op.Acquire -> Printf.sprintf "acq p%d\\nv%d" o.Op.proc o.Op.loc
  | Op.Release -> Printf.sprintf "rel p%d\\nv%d" o.Op.proc o.Op.loc
  | Op.Fence -> Printf.sprintf "fence p%d" o.Op.proc

let edge_style = function
  | Execution.Local p -> Printf.sprintf "label=\"%d<l\", style=dashed" p
  | Execution.Program -> "label=\"<P\""
  | Execution.Sync -> "label=\"<S\", color=blue"
  | Execution.Fence -> "label=\"<F\", color=red"

let of_execution (exec : Execution.t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph execution {\n  rankdir=TB;\n";
  (* cluster operations per process, as the figures lay them out *)
  for p = -1 to exec.Execution.procs - 1 do
    let ops =
      List.filter
        (fun (o : Op.t) -> o.Op.proc = p)
        (Execution.ops_list exec)
    in
    if ops <> [] then begin
      if p >= 0 then
        Buffer.add_string buf
          (Printf.sprintf "  subgraph cluster_p%d {\n    label=\"process %d\";\n"
             p p);
      List.iter
        (fun (o : Op.t) ->
          Buffer.add_string buf
            (Printf.sprintf "    n%d [label=\"%s\", shape=box];\n" o.Op.id
               (node_label o)))
        ops;
      if p >= 0 then Buffer.add_string buf "  }\n"
    end
  done;
  List.iter
    (fun ({ src; kind; dst } : Execution.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [%s];\n" src dst (edge_style kind)))
    (Order.transitive_reduction Order.Full exec);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
