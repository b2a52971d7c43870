(** The paper's evaluation — Fig. 1, Table II, Figs. 8–10, the scaling
    sweep and the ablations — as rows of data with shape claims.

    Each figure measures its rows on fresh deterministic machines, prints
    them through one table printer, and judges the paper's shape claims
    (who wins, where a crossover falls) as predicates over its own rows.
    [pmc_bench paper] drives it; [test/paper_figures.expected] pins the
    output. *)

type 'rows figure
type section = Section : 'rows figure -> section

val sections : section list
(** In print order: fig1, table2, fig8, fig9, fig10, scaling, ablate. *)

val section_name : section -> string
val section_names : string list

val run : Format.formatter -> section list -> int
(** Measure and print each section's tables, then one [ok]/[FAIL] line
    per claim; the result is {!exit_code} of the verdicts. *)

val verdicts : 'rows figure -> 'rows -> (string * bool) list
(** Each claim of the figure, named ["figure: claim"], judged on [rows]. *)

val exit_code : (string * bool) list -> int
(** 0 when every verdict holds, 3 otherwise. *)

(** One Fig. 10 motion-estimation run: wall cycles, and whether the
    found motion vectors equal the planted ones. *)
type run = { backend : Pmc.Backends.kind; wall : int; ok : bool }

val fig10 : run list figure
