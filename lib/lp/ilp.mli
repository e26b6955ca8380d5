(** Branch-and-bound integer linear programming on top of {!Simplex}.

    Used to compute certified optima of the paper's integer programs
    (Figure 3 and the set-constraint / privatization IPs), which are the
    baselines against which the approximation algorithms are measured.

    The solver presolves ({!Presolve}), then runs a best-first search
    over an explicit priority queue ordered by LP bound. It starts from
    the problem alone, with no caller-supplied cutoff or starting
    point: the first incumbent comes from rounding a fractional root LP
    point (an integral one is the incumbent as it stands), and nodes are
    reoptimized from the parent's basis with a bounded dual-simplex
    pass ({!Simplex.SOLVER.warm_solve}). None of this changes answers:
    optima are bit-identical to the pre-overhaul depth-first solver,
    kept as {!S.solve_reference} for differential testing. *)

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

(** The branch-and-bound solver, one instance per simplex route. *)
module type S = sig
  val solve :
    ?node_limit:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    Problem.snapshot ->
    result
  (** [node_limit] defaults to {!default_node_limit}. [deadline] (default
      {!Svutil.Deadline.none}) is polled at every node pop and inside
      the simplex pivot loops: when it expires the search stops and the
      best incumbent is returned as [Feasible] ([Unknown] if there is
      none) with [stats.deadline_hit] set — a deadline hit never claims
      [Optimal].

      [metrics] (default {!Svutil.Metrics.nop}) receives [ilp.nodes]
      (always equal to [stats.nodes]), [ilp.pruned_bound],
      [ilp.presolve_fixed] and [ilp.incumbents], the [lp/presolve]
      span around presolve, the [lp/incumbent] span around the root's
      rounding candidates, plus the {!Simplex} counters and spans from
      the node solves. *)

  val solve_with_stats :
    ?node_limit:int ->
    ?deadline:Svutil.Deadline.t ->
    ?metrics:Svutil.Metrics.t ->
    Problem.snapshot ->
    result * stats

  val solve_reference : ?node_limit:int -> Problem.snapshot -> result
  (** The pre-overhaul recursive depth-first solver (cold LP solve per
      node, fixed [1e-6] snapping tolerance), kept as the oracle for
      differential tests. *)
end

(** Branch and bound over {!Simplex.Exact}: rational pivoting throughout. *)
module Exact : S

(** Branch and bound over {!Simplex.Hybrid}: exact optima (identical to
    {!Exact}'s) with float-priced node relaxations. *)
module Hybrid : S
