(** Double-precision bounded dual simplex over a {!Sform} layout.

    The basis-hunting half of the hybrid solver.  It works on the
    layout's constraint rows only: columns keep their bounds
    [0 <= x_j <= u_j] implicitly ([u_j] read from the bound rows'
    right-hand side), each row's logical is its slack (an [Eq] row's is
    its artificial, fixed at 0), and nonbasic columns sit at a bound.
    The cold start is the all-logical basis with negative-cost columns
    at their upper bound; one pivot loop (product-form inverse, the
    pivot row priced row-wise over the nonzeros of its row of
    [B^-1], Harris ratio test with bound flipping, reduced costs
    updated in place on the columns that row touches) serves it and
    every warm start.  An LP whose all-logical basis is
    not dual feasible — a negative cost on a column without an upper
    bound — gets {!Stalled}.

    Nothing it returns is trusted: {!Certify} checks the candidate
    basis exactly, in the layout's explicit form (DESIGN.md §11), so a
    numerical misadventure here costs time, never correctness.

    A [t] is bound to one {!Sform.t} and keeps its basis, factorization
    and reduced costs between calls: a branch-and-bound node, which
    changes only the right-hand side, first moves each nonbasic column
    to the bound its reduced cost prefers and then runs the same
    loop. *)

type t

val create : Sform.t -> t
(** Solver state for the layout.  The constraint rows' entries (row
    indices and values, as doubles) are copied once into two flat
    arrays each, one ordered by column and one by row; the bound rows
    stay implicit. *)

type point = { xb : float array; y : float array }
(** The float primal–dual pair of an explicit basis, both indexed by
    the layout's rows (bound rows included): basic values [x_B] (row
    [r] holds the value of the row's basic column) and duals [y]. *)

type outcome =
  | Optimal_basis of { basis : int array; point : point }
      (** candidate optimal basis of the explicit layout, one column per
          row, with its float point for {!Certify.check} *)
  | Infeasible_col of { basis : int array; col : int }
      (** the dual pass found basic [col] outside its bounds with no
          entering column: the explicit basis's row holding [col] is a
          Farkas-certificate hint for {!Certify.check_farkas} *)
  | Stalled
      (** no dual-feasible start, iteration cap or numerical breakdown:
          learn nothing *)

val solve :
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  t ->
  rhs:Rat.t array ->
  outcome
(** Minimize the layout's objective under the given right-hand side.
    Ticks [simplex.hybrid.float_pivots].
    @raise Svutil.Deadline.Expired via periodic polls. *)
