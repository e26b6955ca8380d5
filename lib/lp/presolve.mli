(** LP/ILP presolve: bound tightening, row elimination, variable fixing.
    It is the only fixing pass before the search: {!Ilp} takes no
    caller-supplied pins.

    [run] simplifies a {!Problem.snapshot} before any pivoting:

    - integer variables get their bounds rounded to integers ([ceil] on
      the lower, [floor] on the upper);
    - crossed bounds ([ub < lb]) are reported as infeasible immediately;
    - empty rows are checked and dropped;
    - singleton rows are folded into variable bounds and dropped;
    - rows that are redundant (or violated) under the activity bounds
      implied by the variable bounds are dropped (or reported
      infeasible);
    - variables whose bounds coincide are fixed and substituted out.

    It works on the snapshot's flat rows ({!Problem}) in place: a pass
    marks the terms of substituted variables and the rows it eliminates
    as dead and moves constants into a copy of the right-hand sides, and
    one compaction writes the surviving rows, in their original row and
    term order, as the reduced program. Its columns keep their original
    names ({!Problem.var_name}), so a printed reduced program shows
    which columns survived.

    The reduction preserves the optimal objective value exactly — the
    optimal vertex reported after {!reduced.restore} may differ from one
    the unreduced problem would report when optima are non-unique, but
    its objective never does. *)

type reduced = {
  problem : Problem.snapshot;  (** the reduced problem (may have 0 rows) *)
  restore : Rat.t array -> Rat.t array;
      (** maps a solution of [problem] back to the full variable space,
          filling in the values of fixed variables *)
}

type outcome =
  | Infeasible
  | Solved of { values : Rat.t array }
      (** every variable was fixed and all constraints check out; the
          (unique) solution is returned without any solver call *)
  | Reduced of reduced

val run : Problem.snapshot -> outcome

val solve_lp :
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  (module Simplex.SOLVER) ->
  Problem.snapshot ->
  Simplex.result
(** Presolve, solve the reduced continuous relaxation with the given
    solver, and restore: a drop-in replacement for [Solver.solve]
    (integrality marks are ignored, as in {!Simplex}). The reported
    objective is re-evaluated on the restored values against the
    original objective. [deadline] is forwarded to the solver, which may
    raise {!Svutil.Deadline.Expired}. Presolve is timed as the
    [lp/presolve] span of [metrics]. *)
