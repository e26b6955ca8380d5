(** The unified solver engine: one entry point over every Secure-View
    method, with time budgets, uniform result reporting, and an [Auto]
    method that {!choose} routes from the attribute count, the deadline
    and the constraint form.

    Callers build a {!request} (instance + method + budgets + RNG seed),
    call {!run}, and get back one {!result} shape regardless of method:
    an optional solution, an LP lower bound when one was computed, a
    proven-optimality flag, per-phase wall-clock timings, and
    method-specific counters as string pairs. The CLI [solve] and
    [batch] subcommands and the benchmark drivers all go through here —
    no caller invokes {!Greedy}/{!Rounding}/{!Exact} directly for
    end-to-end solving anymore. *)

type meth =
  | Auto  (** portfolio: {!choose} picks one of the concrete methods *)
  | Greedy  (** Theorem 7 per-module union *)
  | Round_card
      (** Algorithm 1: cardinality-LP randomized rounding (Theorem 5);
          refuses instances with explicit set constraints *)
  | Round_set  (** set-LP [1/l_max] threshold rounding (Theorem 6) *)
  | Exact  (** branch-and-bound on {!Exact.program}'s IP *)
  | Brute
      (** exhaustive subset enumeration (small instances only); a
          deadline stops it with an unproven answer *)

val meth_to_string : meth -> string

type request = {
  inst : Instance.t;
  meth : meth;
  deadline_ms : float option;
      (** wall-clock budget in milliseconds; [None] = unlimited. A hit
          budget returns the best incumbent with
          [proven_optimal = false] — it never raises. *)
  node_limit : int;  (** branch-and-bound node budget (exact method) *)
  seed : int;  (** RNG seed for randomized rounding trials *)
  trials : int;
      (** rounding trials; the cheapest solution wins. The first trial
          always runs; the deadline stops the others, with
          [("deadline_hit", "true")] in the stats. *)
  metrics : Svutil.Metrics.t;
      (** observability registry threaded through every layer the solve
          touches (simplex, branch-and-bound, rounding); the default
          {!Svutil.Metrics.nop} records nothing at no measurable cost.
          Pass a fresh {!Svutil.Metrics.create} per request — live
          registries are not shared between concurrent solves. *)
}

val default_request : Instance.t -> request
(** [meth = Auto], no deadline, {!Lp.Ilp.default_node_limit} nodes,
    [seed = 0], [trials = 4], [metrics = Svutil.Metrics.nop]. *)

type solved_state = {
  solved_inst : Instance.t;  (** the instance this result answers *)
  canon : string Lazy.t;
      (** its canonical form ({!Canon.form}), forced on first use —
          {!Delta} compares it against the edited instance to detect
          no-op edits *)
}
(** What {!run} captures so a later {!Delta.resolve} can re-solve an
    edited instance against this result without the caller keeping the
    instance around separately. *)

type result = {
  solution : Solution.t option;  (** [None] = infeasible or refused *)
  lower_bound : Rat.t option;
      (** an LP-relaxation (or optimality) lower bound on the optimum,
          when the method computed one *)
  proven_optimal : bool;
  ratio : float option;  (** {!ratio} of the three fields above *)
  timings : (string * float) list;
      (** per-phase wall-clock milliseconds, e.g. [("lp", _); ("round", _)];
          always includes ["total"] *)
  stats : (string * string) list;
      (** method-specific counters and flags, e.g. branch-and-bound
          [nodes], [deadline_hit], or a brute-force [refused] reason *)
  method_used : meth;  (** never [Auto]: what actually ran *)
  metrics : Svutil.Metrics.t;
      (** the request's registry, carried along for reporting. After
          {!run} it holds the layer counters (e.g. [ilp.nodes], always
          equal to the [nodes] stat) and the phase spans nested under
          ["solve"], whose measurements are the same clock reads that
          produced [timings]. *)
  state : solved_state option;
      (** filled by {!run} (and by {!Delta.resolve} for its edited
          results); [None] on results assembled outside the engine *)
}

val ratio : proven_optimal:bool -> Solution.t option -> Rat.t option -> float option
(** The achieved approximation ratio of a solution against a lower
    bound: [1.0] when proven optimal, else [cost / lower_bound] for a
    positive bound, [1.0] for a zero-cost solution, [None] without a
    solution or a bound. Every {!result}'s [ratio] is this rule, also
    the ones {!Delta.resolve} and the serve cache assemble. *)

val methods : meth list
(** The concrete methods in their reporting order: greedy, round-card,
    round-set, exact, brute. *)

val choose : request -> meth
(** The method [Auto] runs, never [Auto] itself: [Brute] for at most 4
    attributes; otherwise, under a deadline below 25 ms, [Round_card]
    when every module has cardinality constraints
    ({!Exact.all_cardinality}), else [Round_set] when
    {!Instance.lmax} [<= 3], else [Greedy]; otherwise [Exact]. So [Auto]
    never picks a method that refuses the instance. *)

val choose_explain : request -> meth * string
(** {!choose} plus the one-line reason for it, for the CLI's
    [--explain-route]. *)

val run : request -> result
(** Resolve [Auto] via {!choose} and solve with the chosen method.
    [result.method_used] records the concrete method. The LP
    relaxations take the default hybrid route ({!Lp.Simplex.Hybrid_mode}:
    exact rationals, which the rounding guarantees need), and the exact
    method is one ["search"] phase ({!Exact.solve}): no {!Flow} pass
    runs first, since the hull program's LP rows already pin what its
    verdicts would. The whole solve runs inside a ["solve"] metrics
    span whose measurement also provides the ["total"] timings entry
    (solver phases appear under ["solve/<phase>"] in the registry). *)
