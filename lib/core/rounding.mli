(** Rounding algorithms for the Secure-View LP relaxations.

    {!algorithm1} is the paper's Algorithm 1 (randomized rounding of the
    Figure 3 LP, Theorem 5's O(log n)-approximation); {!threshold} is
    the deterministic [1/l_max] rounding of the set-constraint LP
    (Theorem 6, and Appendix C.4 with privatization). Both always return
    a feasible solution. *)

val cheapest_option : Instance.t -> Instance.pmod -> int list
(** The minimum-cost hidden set (attribute ids) satisfying one module's requirement
    ([B_i^min] in Algorithm 1): cheapest [alpha] inputs plus cheapest
    [beta] outputs minimized over the cardinality list, or the cheapest
    explicit option for set constraints.
    @raise Invalid_argument if the requirement list is empty. *)

val algorithm1 :
  ?metrics:Svutil.Metrics.t ->
  Svutil.Rng.t ->
  Instance.t ->
  x:(int -> Rat.t) ->
  Solution.t
(** Step 2 hides each attribute [b] independently with probability
    [min(1, 16 x_b ln n)]; step 3 adds [B_i^min] for every module whose
    requirement is still unsatisfied. Exposed public modules are
    privatized. [metrics] (default {!Svutil.Metrics.nop}) receives
    [rounding.trials] (one per call) and [rounding.repairs] (one per
    step-3 module repair). *)

val threshold : Instance.t -> x:(int -> Rat.t) -> Solution.t
(** Hide [{b : x_b >= 1/l_max}]; privatize exposed publics. [x] reads
    the LP value of an attribute id, as {!Set_lp.lp_relaxation} gives
    it; an instance already in set form ({!Instance.to_sets}) is not
    converted again. *)

val best_of :
  ?deadline:Svutil.Deadline.t -> int -> (int -> Solution.t) -> Solution.t * int
(** Cheapest of [n] trials (trial index passed for seeding, in order
    [0, 1, ...]) and the number of trials run; a practical refinement
    over single-shot rounding. The first trial always runs; a later one
    only starts while [deadline] (default {!Svutil.Deadline.none}) has
    not expired. *)
