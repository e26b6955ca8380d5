(** Exact certification of float-found simplex bases.

    The hybrid solver's correctness argument lives here.  A candidate
    basis from {!Fsimplex} is accepted on one exact test of a primal–dual
    pair — basic values [x_B] and duals [y] — against the LP optimality
    conditions:

    - {e primal feasibility}: [B x_B = b] and [x_B >= 0], with every
      basic artificial exactly zero;
    - {e dual feasibility and complementary slackness}: every
      structural or slack column has exact reduced cost [c_j - y A_j]
      zero when basic and non-negative when not.

    When both hold, LP duality proves the basic point optimal ({e
    accept}).  The test trusts nothing about where the pair came from,
    so it needs no factorization: the float pass's point is recovered
    as small-denominator rationals by continued fractions and checked
    as is.  It also needs no nonsingular basis — a singular basis whose
    pair checks is accepted, and its point is still an exact optimum.

    When there is no float point, recovery fails or the recovered pair
    does not check, the basis is refactorized in exact rationals and
    the exact [x_B = B^-1 b], [y = c_B B^-1] go through the same test.
    If exactly one side fails there, a short exact primal or dual
    cleanup from that basis usually reaches optimality in a handful of
    pivots ({e repair}).  Anything else — singular basis, both sides
    violated, pivot budget exhausted — is reported as {!Cert_fail} and
    the caller falls back to the exact two-phase solver, so a wrong
    float basis can cost time but never an answer. *)

type outcome =
  | Cert_optimal of { objective : Rat.t; values : Rat.t array; repaired : bool }
      (** exact optimum ([values] in original, unshifted coordinates) *)
  | Cert_infeasible  (** an exact Farkas/dual certificate of infeasibility *)
  | Cert_unbounded  (** an exact unbounded ray *)
  | Cert_fail  (** could not certify: fall back to the exact solver *)

val check :
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  ?point:Fsimplex.point ->
  Sform.t ->
  rhs:Rat.t array ->
  lb:Rat.t array ->
  basis:int array ->
  outcome
(** Certify a candidate optimal basis under the node's bounds ([lb] is
    the shift used to build [rhs]), first on [point] (the basis's float
    pair, by row like [basis]) when one is given.  Ticks
    [certify.accepts], [certify.repairs] and [certify.factorizations]
    (one per call that builds the exact factorization). *)

val check_phase1 :
  ?deadline:Svutil.Deadline.t ->
  Sform.t ->
  rhs:Rat.t array ->
  basis:int array ->
  art_sign:int array ->
  bool
(** [true] iff the phase-1 basis exactly proves infeasibility: it is
    primal feasible and dual feasible for the artificial-sum objective,
    with a strictly positive artificial sum. *)

val check_farkas :
  ?deadline:Svutil.Deadline.t ->
  Sform.t ->
  rhs:Rat.t array ->
  basis:int array ->
  col:int ->
  bool
(** [true] iff the basis row holding [col] is an exact Farkas
    certificate: its basic value is negative while the row of
    [B^-1 A] is non-negative on every real column. *)
