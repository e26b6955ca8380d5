(** The Figure 3 integer program for Secure-View with cardinality
    constraints, and its LP relaxation (proof of Theorem 5).

    Variables (all in [0,1]): [x_b] per attribute (1 = hidden), [r_ij]
    per module option (1 = option j satisfies module i), and [y_bij] /
    [z_bij] crediting attribute [b] towards option [j]'s input / output
    quota. General workflows add [w_p] per public module (1 =
    privatized) with the C.4 coupling [w_p >= x_b].

    Integrality marks are placed on [x] and [r] — with those integral,
    fractional [y]/[z]/[w] already witness feasibility, so the marked IP
    is exactly the Secure-View problem. *)

type variant =
  | Full  (** the paper's Figure 3 *)
  | No_pair_bound
      (** drop constraints (6)-(7); B.4 shows the relaxation then has an
          unbounded integrality gap *)
  | No_sum_bound
      (** remove the sums from constraints (4)-(5); B.4 shows an
          [Omega(l_max)] gap *)

type built = {
  problem : Lp.Problem.snapshot;
  attr_var : int array;  (** attribute id -> its [x] column *)
}

val build : ?variant:variant -> Instance.t -> built
(** @raise Invalid_argument if some module's requirement is not in
    cardinality form. *)

val lp_relaxation :
  ?variant:variant ->
  ?mode:Lp.Simplex.mode ->
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  Instance.t ->
  [ `Optimal of (int -> Rat.t) * Rat.t | `Infeasible ]
(** Solve the LP relaxation; returns the hidden-indicator values
    [x_b] and the LP objective (a lower bound on the optimum).
    [mode] picks the simplex route (default {!Lp.Simplex.Hybrid_mode}:
    exact-rational answers at float pivoting cost).
    [deadline] is polled inside the simplex pivot loops; on expiry
    {!Svutil.Deadline.Expired} is raised. *)
