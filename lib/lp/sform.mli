(** Shared standard form for the hybrid-precision solve path.

    Both the double-precision basis-hunting pass ({!Fsimplex}) and the
    exact certifier ({!Certify}) must agree on one column layout, or a
    basis found in floats could not be checked in rationals.  This
    module computes that layout once, entirely in exact arithmetic:

    - variables are shifted ([y_i = x_i - lb_i >= 0]), so the node's
      lower bounds live in the right-hand side, not in extra rows;
    - upper bounds become explicit [y_i <= ub_i - lb_i] rows, mirroring
      {!Simplex.Exact.solve};
    - columns are [0..n-1] structural, then one slack per inequality
      row (in row order), then one designated artificial per row
      ([first_art + r] for row [r]).

    The float pass works on the constraint rows only and keeps the
    upper bounds implicit, reading them from the bound rows'
    right-hand side; the bound rows themselves serve certification,
    which checks the explicit basis the pass hands over.

    The columns are filled from the snapshot's flat rows
    ({!Problem}) and {!rhs} shifts by the same rows, so the constraint
    matrix exists in one row layout and one column layout, nothing
    else.

    The structure (columns, objective, slack signs) depends only on the
    snapshot's constraint matrix and on {e which} variables carry an
    upper bound — not on the bound values.  Branch-and-bound nodes that
    only move integer bounds therefore share one [t] and recompute just
    the right-hand side via {!rhs}. *)

type t = private {
  n : int;  (** structural variables *)
  m : int;  (** rows: constraints then upper-bound rows *)
  m0 : int;  (** constraint rows; rows [>= m0] are upper-bound rows *)
  first_art : int;  (** [n + n_slack]; artificial of row [r] is [first_art + r] *)
  ncols : int;  (** [first_art + m] *)
  cols : (int array * Rat.t array) array;
      (** sparse columns for [j < first_art], parallel row-index/value
          arrays with the rows in ascending order (so a column's
          constraint-row entries lead it); artificial columns are
          implicit unit vectors *)
  obj : Rat.t array;
      (** objective over [j < first_art] (0 past [n]): the snapshot's
          dense objective, extended *)
  slack_sign : int array;  (** per row: +1 for [Le], -1 for [Ge], 0 for [Eq] *)
  slack_col : int array;  (** per row: slack column index, or -1 *)
  ub_var : int array;  (** per upper-bound row [m0 + k]: the variable it bounds *)
  ub_row : int array;  (** per variable: its upper-bound row, or -1 *)
  rows : Problem.snapshot;
      (** the program laid out: its constraint rows and right-hand sides
          (rows [< m0]) shift {!rhs}; its bounds are not consulted *)
}

val make : Problem.snapshot -> t
(** Layout for the snapshot's constraint matrix and bound pattern.
    Bound {e values} are not consulted; pass them to {!rhs}. *)

type rhs_result =
  | Rhs of Rat.t array  (** shifted right-hand sides, one per row *)
  | Crossed  (** some [ub < lb]: the node is trivially infeasible *)
  | Mismatch
      (** the bound pattern no longer matches the layout (an upper bound
          appeared or disappeared) — rebuild with {!make} *)

val rhs : t -> lb:Rat.t array -> ub:Rat.t option array -> rhs_result
(** Exact right-hand side of the standard form under the given bounds:
    constraint rows are shifted by [lb], upper-bound rows carry
    [ub - lb]. *)

val col : t -> int -> (int array * Rat.t array) option
(** Sparse column [j]: [None] for artificial columns (implicit
    [e_{j - first_art}]). *)
