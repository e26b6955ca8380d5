(** Double-precision bounded dual simplex over a program's own rows.

    The basis-hunting half of the hybrid solver, and the only module
    that knows its float layout.  {!create} lays the columns out from
    the snapshot's rows: the structurals first, then one slack per
    [Le]/[Ge] row in row order, then one logical fixed at 0 per [Eq]
    row.  A [Ge] row is stored negated, so every logical column is a
    unit column and the all-logical basis is the identity; that only
    flips the sign of the row's dual, which {!solve} restores.  Every
    column keeps its bounds [0 <= x_j <= u_j] implicitly, in
    coordinates shifted by the node's lower bounds ([u_j] is
    [ub_j - lb_j], or infinity when the variable has no upper bound;
    a slack's is infinity), and nonbasic columns sit at a bound.  The
    cold start is the all-logical basis with negative-cost columns at
    their upper bound, with an empty eta file; one pivot loop
    (product-form inverse kept as one flat pool of eta entries, the
    pivot row priced row-wise over the nonzeros of its row of [B^-1],
    Harris ratio test with bound flipping over the columns that pricing
    reached, reduced costs updated in place on those columns) serves it
    and every warm start.  An LP whose all-logical basis is not dual
    feasible — a negative cost on a column without an upper bound —
    gets {!Stalled}.

    Nothing it returns is trusted: {!Certify} checks the answer exactly
    on the snapshot's rows (DESIGN.md §11), so a numerical misadventure
    here costs time, never correctness.  What it hands over is
    numbered by the snapshot, not by the layout: variable [j < n] is
    column [j], and row [r]'s logical (its slack, or the fixed logical
    of an [Eq] row) is column [n + r].

    A [t] keeps its basis, factorization and reduced costs between
    calls: a branch-and-bound node, which changes only the bounds,
    first moves each nonbasic column to the bound its reduced cost
    prefers and then runs the same loop.  A node that gives a variable
    its first upper bound keeps the warm state too; one that takes a
    variable's upper bound away while its reduced cost wants it there
    starts cold. *)

type t

val create : Problem.snapshot -> t
(** Solver state for the snapshot's rows and objective; its bounds are
    not consulted.  The rows' entries (as doubles) are copied once into
    two flat layouts, one ordered by column and one by row. *)

type outcome =
  | Optimal of {
      basis : int array;  (** by row: the basic column, numbered by the snapshot *)
      at_upper : bool array;
          (** per variable: it is nonbasic at its upper bound (a
              nonbasic logical sits at 0) *)
      xb : float array;  (** by row: the basic column's value less its lower bound *)
      y : float array;
          (** by row: the duals [c_B B^-1] of the snapshot's own rows *)
    }  (** the candidate optimum, for {!Certify.check} *)
  | Infeasible of { y : float array }
      (** the dual pass found a basic value outside its bounds that no
          entering column can repair: [y = s·ρ], where [ρ] is that row
          of [B^-1] and [s] is [+1] below the lower bound and [-1]
          above the upper one — a row combination no point in the box
          meets, for {!Certify.check} *)
  | Stalled
      (** no dual-feasible start, iteration cap or numerical breakdown:
          learn nothing *)

val solve :
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  t ->
  lb:Rat.t array ->
  ub:Rat.t option array ->
  outcome
(** Minimize the objective under the given bounds ([lb <= ub]
    everywhere).  The right-hand side and the upper bounds are shifted
    by [lb] in doubles; {!Certify} re-checks the answer exactly on the
    snapshot's rows and bounds.  Ticks [simplex.hybrid.float_pivots].
    @raise Svutil.Deadline.Expired via periodic polls. *)
