(** Certified optima for Secure-View instances — the baselines the
    approximation experiments measure against.

    {!solve} runs branch-and-bound on the appropriate integer program
    (Figure 3 for all-cardinality instances, the set-constraint IP
    otherwise). {!brute_force} enumerates hidden attribute subsets
    directly and is used to cross-check the ILP path on small
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

val solve :
  ?node_limit:int ->
  ?mode:Lp.Simplex.mode ->
  ?jobs:int ->
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  ?seed:Solution.t ->
  ?attr_fixings:(string * Rat.t) list ->
  Instance.t ->
  outcome option
(** [None] when the instance is infeasible. [mode] picks the simplex
    route for the node relaxations (default {!Lp.Simplex.Hybrid_mode}:
    exact answers, float basis hunting; {!Lp.Simplex.Exact_mode} pivots
    in rationals throughout and gives the same answers). [jobs]
    evaluates that many branch-and-bound nodes concurrently (default 1;
    the answer does not depend on it). The search is seeded with the
    greedy solution as a strict cutoff, so a run that proves the seed
    unbeatable returns it as optimal without finding it again; the
    LP-rounding seed lives inside {!Lp.Ilp}, which rounds its own root
    relaxation. [deadline] bounds the branch-and-bound wall clock: on
    expiry the best incumbent found so far (at worst the greedy seed) is
    returned with [proven_optimal = false].

    [seed] offers an externally-known feasible solution (e.g. the
    parent solution in [Core.Delta]'s incremental re-solve): the search
    is seeded with the cheaper of it and the greedy solution, both as
    the strict cutoff and — via the IP builders' witnessing points — as
    a warm incumbent inside {!Lp.Ilp}. An infeasible [seed] is ignored.

    [attr_fixings] pins hiding variables by attribute name before the
    branch-and-bound runs ({!Flow.fixings} produces sound ones: the
    optimal cost is unchanged, so the greedy cutoff logic is
    unaffected). Names without a hiding variable are ignored. *)

val solve_with_stats :
  ?node_limit:int ->
  ?mode:Lp.Simplex.mode ->
  ?jobs:int ->
  ?deadline:Svutil.Deadline.t ->
  ?metrics:Svutil.Metrics.t ->
  ?seed:Solution.t ->
  ?attr_fixings:(string * Rat.t) list ->
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
  Instance.t -> (Solution.t option, refusal) result
(** Exhaustive search over hidden attribute subsets. [Ok None] means the
    instance is infeasible; [Error] means the instance has more than
    {!brute_force_limit} attributes and the search was refused without
    enumerating anything. *)

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
