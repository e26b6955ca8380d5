(** Two-phase primal simplex with warm-started dual reoptimization.

    Two solvers, both returning exact rationals. {!Exact} pivots a dense
    tableau over exact rationals and is the reference used by the
    paper-faithful experiments and the differential tests. {!Hybrid}
    runs a double-precision bounded dual simplex from the slack basis
    ({!Fsimplex}) to hunt for the optimal basis, {!Certify} accepts it
    on an exact check of its float primal–dual point (or refactorizes
    it in exact rationals and repairs it), and only a failed
    certification — or an LP whose slack basis is not dual feasible, a
    negative cost on a column without an upper bound — falls back to
    {!Exact}. Its optimal values equal {!Exact}'s (the optimal vertex
    may differ among ties) at a fraction of the pivoting cost, which is
    why it is the default route ({!Hybrid_mode}).

    Pivot selection is Dantzig's rule with a Bland fallback during
    degenerate streaks (anti-cycling), and the inner pivot loops skip
    zero entries — a large constant-factor win for the sparse gadget
    programs under exact rational arithmetic.

    Integrality marks on variables are ignored here — this solves the
    continuous relaxation. Use {!Ilp} for integer programs. *)

type result =
  | Optimal of { objective : Rat.t; values : Rat.t array }
  | Infeasible
  | Unbounded

module type SOLVER = sig
  val solve :
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    Problem.snapshot ->
    result
  (** Cold two-phase solve. The pivot loops poll [deadline] every few
      dozen iterations and raise {!Svutil.Deadline.Expired} when it has
      passed — callers holding an incumbent catch it there. Defaults to
      {!Svutil.Deadline.none}.

      [metrics] (default {!Svutil.Metrics.nop}) receives the counters
      [simplex.cold_starts], [simplex.pivots] and
      [simplex.deadline_polls]; pivot counts are accumulated locally and
      flushed once per solve, including when the deadline fires. *)

  type warm
  (** Reusable solver state for a fixed constraint matrix: only the
      bounds of integer-marked variables may change between calls.
      Bounds are carried as explicit rows, so a branch-and-bound bound
      change is a pure right-hand-side change and the parent's optimal
      basis stays dual feasible — each node costs a short dual-simplex
      pass instead of a full two-phase solve. *)

  val warm_create :
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    Problem.snapshot ->
    warm option
  (** Builds warm state and solves the root. [None] when the problem is
      not warmable (an integer variable without a finite upper bound,
      or a root that is not primal-feasible and bounded) — callers fall
      back to {!solve}. May raise {!Svutil.Deadline.Expired} from the
      root solve. The [metrics] registry is stored in the warm state:
      every later {!warm_solve} reports into it ([simplex.warm_starts]
      plus the {!solve} counters). *)

  val warm_root : warm -> result
  (** The root optimum computed by {!warm_create}, at no extra cost —
      callers should use it for the root node instead of a redundant
      {!warm_solve} at root bounds. *)

  val warm_solve :
    ?deadline:Svutil.Deadline.t ->
    warm ->
    lb:Rat.t array ->
    ub:Rat.t option array ->
    result
  (** Reoptimize under new bounds for the integer-marked variables
      (bounds of other variables must equal the root's). Falls back to a
      cold {!solve} internally if the bounded dual pass fails, so the
      result is always as definitive as {!solve}'s. Polls [deadline]
      like {!solve}. Not thread-safe: a [warm] value must be used by one
      domain at a time. *)
end

module Exact : SOLVER

module Hybrid : SOLVER
(** Float-first basis hunting with exact certification: exact-rational
    results whose per-solve cost is dominated by the double-precision
    pass whenever certification accepts.  Metrics:
    [simplex.hybrid.float_pivots], [certify.accepts], [certify.repairs],
    [certify.factorizations] (certifications that built an exact
    factorization because the float point did not check), and
    [certify.fallbacks] (each fallback also runs the {!Exact}
    counters); spans [lp/sform] around building the standard form and
    the float solver state, [lp/float] around the float pass and
    [lp/certify] around its certification. A warm solve whose bounds
    change which variables carry an upper bound (branching on a
    variable without one) gets a fresh standard form, so it also stays
    in floats. *)

(** {1 Solver selection} *)

type mode = Exact_mode | Hybrid_mode
(** The two LP routes: pure exact rationals (the reference oracle), and
    hybrid (exact results, float basis hunting — the default every
    engine request takes). *)

val solver_of_mode : mode -> (module SOLVER)
