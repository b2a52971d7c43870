(** Graphviz export of executions — the dependency graphs of Figs. 2-5,
    transitively reduced under ≺ like the paper's figures. *)

val of_execution : Execution.t -> string
