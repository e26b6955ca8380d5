(** The LP for Secure-View with set constraints (Appendix B.5.1) and its
    general-workflow extension with privatization variables (Appendix
    C.4).

    Variables in [0,1]: [x_b] per attribute, [r_ij] per explicit option,
    and [w_p] per public module with [w_p >= x_b] for the module's
    attributes. Rounding at threshold [1/l_max] gives the paper's
    [l_max]-approximation (Theorems 6 and the C.4 extension).

    Only [x] carries an integrality mark: if [x] is integral and some
    [r_ij > 0], constraint (16) already forces option [j] to be fully
    hidden, so the marked IP is exactly the Secure-View problem. *)

type built = {
  problem : Lp.Problem.snapshot;
  attr_var : int array;  (** attribute id -> its [x] column *)
  pub_var : int array;  (** public module index -> its [w] column *)
  point_of : Solution.t -> Rat.t array option;
      (** a full-space feasible point witnessing the given solution
          (selected options included), for warm incumbent injection into
          {!Lp.Ilp}; [None] when the solution does not actually satisfy
          every module *)
}

val build : Instance.t -> built
(** Cardinality requirements are first expanded via
    {!Requirement.card_to_sets}. *)

val lp_relaxation :
  ?mode:Lp.Simplex.mode ->
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  Instance.t ->
  [ `Optimal of (int -> Rat.t) * Rat.t | `Infeasible ]
(** [mode] picks the simplex route (default {!Lp.Simplex.Hybrid_mode}).
    [deadline] is polled inside the simplex pivot loops; on expiry
    {!Svutil.Deadline.Expired} is raised. *)
