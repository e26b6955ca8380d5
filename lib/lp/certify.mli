(** Exact certification of what the float pass found.

    The hybrid solver's correctness argument lives here, and only here.
    {!Fsimplex} hands over its answer numbered by the snapshot's own
    columns: variable [j], and the logical of row [r] (its slack, [>= 0]
    for a [Le] or [Ge] row; a logical fixed at 0 for an [Eq] row), so
    that every row reads [a_r·x + σ_r·s_r = b_r] with [σ_r = -1] on
    [Ge] rows and [+1] otherwise, over the box [lb <= x <= ub],
    [s >= 0].  Each float is read back as a small-denominator rational
    by continued fractions, and the certificate is checked exactly on
    the snapshot's rows and bounds; nothing about the float layout, the
    basis matrix or where the floats came from is trusted.

    - {e Optimum.}  Nonbasic columns take their exact bound (a nonbasic
      logical sits at 0), basic values and duals [y] are recovered.
      The pair is accepted when every row holds exactly with its
      logical, [lb <= x <= ub], and each reduced cost
      [d_j = c_j - y·A_j] (summed row-wise) is positive only where
      [x_j = lb_j] and negative only where [x_j = ub_j] with [ub_j]
      finite.  This is weak duality for the bounded dual: every
      feasible [x'] has
      [c·x' = y·b + d·x' >= y·b + Σ_j (d_j > 0 ? d_j·lb_j : d_j·ub_j)],
      and [x] attains that bound.
    - {e Infeasibility.}  With [g_j = y·A_j] over the structurals and
      the logicals, [y] is accepted when every column with [g_j < 0]
      has a finite upper bound and
      [y·b < Σ_j (g_j < 0 ? g_j·ub_j : g_j·lb_j)]: the right-hand side
      is the least [y·A·x] takes over the box, so no point in the box
      meets the rows.

    Anything else — a stalled pass, a value that does not recover within
    the bounds (denominator below 2^20, numerator below 2^30) or a
    certificate that does not check — is {!Cert_fail}, and the caller
    falls back to the exact two-phase solver, so a wrong float answer
    can cost time but never an answer. *)

type outcome =
  | Cert_optimal of { objective : Rat.t; values : Rat.t array }
      (** exact optimum, one value per variable *)
  | Cert_infeasible  (** an exact certificate of infeasibility *)
  | Cert_fail  (** could not certify: fall back to the exact solver *)

val check : ?metrics:Svutil.Metrics.t -> Problem.snapshot -> Fsimplex.outcome -> outcome
(** Certify the float pass's outcome for the snapshot under its bounds
    ([lb <= ub] everywhere, as the pass was given them).  Ticks
    [certify.accepts] on each accepted optimum. *)
