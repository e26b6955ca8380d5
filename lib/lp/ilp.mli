(** Branch-and-bound integer linear programming on top of {!Simplex}.

    Used to compute certified optima of the paper's integer programs
    (Figure 3 and the set-constraint / privatization IPs), which are the
    baselines against which the approximation algorithms are measured.

    The solver presolves ({!Presolve}), then runs a best-first search
    over an explicit priority queue ordered by LP bound. The incumbent
    is seeded by rounding the root LP relaxation, nodes are reoptimized
    from the parent's basis with a bounded dual-simplex pass
    ({!Simplex.SOLVER.warm_solve}), and open nodes can be evaluated in
    parallel ({!Svutil.Par}). None of this changes answers: optima are
    bit-identical to the pre-overhaul depth-first solver, kept as
    {!Make.solve_reference} for differential testing. *)

type result =
  | Optimal of { objective : Rat.t; values : Rat.t array }
      (** Proven optimal over the integrality-marked variables. *)
  | Feasible of { objective : Rat.t; values : Rat.t array }
      (** Node limit or deadline reached; best incumbent returned. *)
  | Infeasible
  | Unbounded
  | Unknown
      (** Node limit or deadline reached before any incumbent was
          found. *)

type stats = {
  nodes : int;  (** LP relaxations solved (0 when presolve decided alone) *)
  node_limit : int;
  limit_hit : bool;
  deadline_hit : bool;
      (** the time budget expired before the search completed; the
          result is [Feasible] or [Unknown], never [Optimal] *)
  root_bound : Rat.t option;
      (** objective of the root LP relaxation (in the original variable
          space): a lower bound on every integral solution. [None] when
          the root was infeasible or never solved. *)
}

val default_node_limit : int
(** 50_000 LP relaxation solves. *)

module Make (_ : Simplex.SOLVER) : sig
  val solve :
    ?node_limit:int ->
    ?cutoff:Rat.t ->
    ?incumbent:Rat.t array ->
    ?jobs:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    ?fixings:(int * Rat.t) list ->
    Problem.snapshot ->
    result
  (** [node_limit] defaults to {!default_node_limit}. [cutoff] prunes
      the search to solutions with objective strictly below it: when the
      search completes without finding one, the result is [Infeasible],
      meaning "nothing better than the cutoff exists" — callers holding
      a feasible solution at exactly the cutoff may conclude it is
      optimal. [jobs] evaluates up to that many open nodes concurrently
      per round (real parallelism only when {!Svutil.Par.available});
      the reported optimum does not depend on it. [deadline] (default
      {!Svutil.Deadline.none}) is polled at every node pop and inside
      the simplex pivot loops: when it expires the search stops and the
      best incumbent is returned as [Feasible] ([Unknown] if there is
      none) with [stats.deadline_hit] set — a deadline hit never claims
      [Optimal].

      [metrics] (default {!Svutil.Metrics.nop}) receives [ilp.nodes]
      (always equal to [stats.nodes]), [ilp.pruned_bound],
      [ilp.presolve_fixed] and [ilp.incumbents], plus the {!Simplex}
      counters from the node solves. Parallel workers write into
      private per-slot registries that are absorbed into [metrics]
      before the call returns, so the caller's registry is never
      touched concurrently.

      [fixings] pins variables to values before presolve
      ({!Presolve.apply_fixings}): the caller vouches that each pin
      preserves the optimal objective (e.g. [Core.Flow]'s static
      must-hide / may-expose verdicts). Counts [ilp.static_fixed].

      [incumbent] offers a candidate point in the {e original} variable
      space (typically the solution of a nearby problem — the warm-start
      surface [Core.Delta] re-solves through). It is projected through
      {!Presolve.reduced.keep} and installed as the initial incumbent
      when exactly feasible for the reduced problem and within [cutoff]
      (non-strictly: an incumbent at the cutoff makes a completed search
      return it as [Optimal] rather than [Infeasible]). An infeasible or
      dominated offer is silently ignored — correctness never depends on
      it. Ticks [ilp.warm_incumbents] when installed. *)

  val solve_with_stats :
    ?node_limit:int ->
    ?cutoff:Rat.t ->
    ?incumbent:Rat.t array ->
    ?jobs:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    ?fixings:(int * Rat.t) list ->
    Problem.snapshot ->
    result * stats

  val solve_reference : ?node_limit:int -> Problem.snapshot -> result
  (** The pre-overhaul recursive depth-first solver (cold LP solve per
      node, fixed [1e-6] snapping tolerance), kept as the oracle for
      differential tests. *)
end

module Exact : sig
  val solve :
    ?node_limit:int ->
    ?cutoff:Rat.t ->
    ?incumbent:Rat.t array ->
    ?jobs:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    ?fixings:(int * Rat.t) list ->
    Problem.snapshot ->
    result

  val solve_with_stats :
    ?node_limit:int ->
    ?cutoff:Rat.t ->
    ?incumbent:Rat.t array ->
    ?jobs:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    ?fixings:(int * Rat.t) list ->
    Problem.snapshot ->
    result * stats

  val solve_reference : ?node_limit:int -> Problem.snapshot -> result
end

(** Branch and bound over {!Simplex.Hybrid}: exact optima (identical to
    {!Exact}'s) with float-priced node relaxations. *)
module Hybrid : sig
  val solve :
    ?node_limit:int ->
    ?cutoff:Rat.t ->
    ?incumbent:Rat.t array ->
    ?jobs:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    ?fixings:(int * Rat.t) list ->
    Problem.snapshot ->
    result

  val solve_with_stats :
    ?node_limit:int ->
    ?cutoff:Rat.t ->
    ?incumbent:Rat.t array ->
    ?jobs:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    ?fixings:(int * Rat.t) list ->
    Problem.snapshot ->
    result * stats

  val solve_reference : ?node_limit:int -> Problem.snapshot -> result
end
