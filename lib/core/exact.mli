(** Certified optima for Secure-View instances — the baselines the
    approximation experiments measure against.

    {!solve} runs branch-and-bound on the integer program {!program}
    picks: the set-constraint IP on each module's convex hull
    ({!Set_lp}), with every cardinality list expanded into its options,
    unless that expansion would outgrow Figure 3 ({!Card_lp}). Each
    solve starts from its instance alone, with no pre-search aid: no
    static fixings, no cutoff and no caller's warm seed. The hull's LP
    rows pin what the fixings pinned, and its root LP is usually
    integral, so a cutoff or a seed would prune almost nothing.
    {!brute_force} enumerates
    hidden attribute subsets directly (one reused mask, a cost only for
    feasible ones) and is used to cross-check the ILP path on small
    instances. *)

type outcome = {
  solution : Solution.t;
  proven_optimal : bool;
      (** false when the branch-and-bound node limit or deadline was
          reached *)
}

val all_cardinality : Instance.t -> bool
(** Every module requirement is in cardinality form — the instance is
    eligible for the Figure 3 IP and Algorithm 1's rounding. *)

type program =
  | Hull  (** {!Set_lp}: one convex-hull block per module *)
  | Figure_3  (** {!Card_lp}: the paper's Figure 3 *)

val program : Instance.t -> program
(** The integer program {!solve} and {!lower_bound} build. Both have the
    same integer optimum, and the hull's LP bound is at least Figure
    3's. [Figure_3] only for an all-cardinality instance with a module
    whose expansion would be wider than its Figure 3 block: more options
    (sum over its pairs of [Instance.binomial |I| alpha *
    Instance.binomial |O| beta]) than [L·(1+|I|+|O|)] r/y/z columns, or
    a side over {!Svutil.Subset.max_universe}. *)

val build_ip : Instance.t -> Lp.Problem.snapshot * int array
(** {!program}'s IP: the problem and each attribute id's hiding
    column. *)

val solve :
  ?node_limit:int ->
  ?mode:Lp.Simplex.mode ->
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  Instance.t ->
  outcome option
(** [None] when the instance is infeasible. [mode] picks the simplex
    route for the node relaxations (default {!Lp.Simplex.Hybrid_mode}:
    exact answers, float basis hunting; {!Lp.Simplex.Exact_mode} pivots
    in rationals throughout and gives the same answers). {!Lp.Ilp}
    rounds its own root relaxation for a first incumbent. [deadline]
    bounds the branch-and-bound wall clock: on expiry the best
    incumbent found so far is returned with [proven_optimal = false],
    and a search stopped before any incumbent answers the greedy
    solution ({!Greedy.feasible_solution}, computed only then),
    unproven. [metrics] gets the [lp/build] span around the IP build,
    beside {!Lp.Ilp}'s. *)

val solve_with_stats :
  ?node_limit:int ->
  ?mode:Lp.Simplex.mode ->
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  Instance.t ->
  outcome option * Lp.Ilp.stats
(** Like {!solve}, also reporting branch-and-bound search statistics
    (nodes explored, limit, whether the limit or deadline was hit, and
    the root LP bound) for diagnostics and the CLI's [--json] output. *)

type refusal = Too_many_attrs of { attrs : int; limit : int }
(** A typed reason why {!brute_force_checked} declined to run. *)

val brute_force_limit : int
(** Largest attribute count the exhaustive search accepts (25). *)

val refusal_to_string : refusal -> string

val brute_force_checked :
  ?deadline:Svutil.Deadline.t -> Instance.t -> (outcome option, refusal) result
(** Exhaustive search over hidden attribute subsets, proven optimal when
    it ends; among equally cheap feasible subsets the first in counter
    order (bit [i] hides attribute id [i]) wins. [Ok None] means the
    instance is infeasible; [Error] means
    the instance has more than {!brute_force_limit} attributes and the
    search was refused without enumerating anything. [deadline] is
    polled during the enumeration: on expiry the cheapest feasible set
    seen so far, else the greedy solution, comes back with
    [proven_optimal = false]. *)

val brute_force : Instance.t -> Solution.t option
(** {!brute_force_checked}, raising [Invalid_argument] on refusal.
    Prefer the checked variant in new code. *)

val lower_bound :
  ?mode:Lp.Simplex.mode ->
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  Instance.t ->
  Rat.t option
(** The LP-relaxation bound used in approximation-ratio reporting
    (default mode {!Lp.Simplex.Hybrid_mode}). May raise
    {!Svutil.Deadline.Expired}. *)
