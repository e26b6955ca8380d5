(** The unified solver engine: one entry point over every Secure-View
    method, with time budgets, a portfolio strategy, and uniform result
    reporting.

    Callers build a {!request} (instance + method + budgets + seed),
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
  | Exact  (** branch-and-bound on the Figure 3 / set IP *)
  | Brute  (** exhaustive subset enumeration (small instances only) *)

val meth_to_string : meth -> string
val meth_of_string : string -> meth option

type request = {
  inst : Instance.t;
  meth : meth;
  deadline_ms : float option;
      (** wall-clock budget in milliseconds; [None] = unlimited. A hit
          budget returns the best incumbent with
          [proven_optimal = false] — it never raises. *)
  node_limit : int;  (** branch-and-bound node budget (exact method) *)
  jobs : int;  (** concurrent branch-and-bound node evaluations *)
  seed : int;  (** RNG seed for randomized rounding trials *)
  trials : int;  (** rounding trials; the cheapest solution wins *)
  warm_seed : Solution.t option;
      (** a known feasible solution to seed the exact search with
          (cutoff + warm incumbent; see {!Exact.solve}) — the
          {!Delta} re-solve path passes the patched parent solution
          here. Ignored by the non-exact methods; an infeasible seed is
          ignored everywhere. Default [None]. *)
  metrics : Svutil.Metrics.t;
      (** observability registry threaded through every layer the solve
          touches (simplex, branch-and-bound, rounding); the default
          {!Svutil.Metrics.nop} records nothing at no measurable cost.
          Pass a fresh {!Svutil.Metrics.create} per request — live
          registries are not shared between concurrent solves. *)
}

val default_request : Instance.t -> request
(** [meth = Auto], no deadline, {!Lp.Ilp.default_node_limit} nodes,
    [jobs = 1], [seed = 0], [trials = 4], [warm_seed = None],
    [metrics = Svutil.Metrics.nop]. *)

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
  ratio : float option;
      (** achieved approximation ratio [cost / lower_bound] when both
          are available; [1.0] when proven optimal *)
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

val methods : meth list
(** The concrete methods in their reporting order: greedy, round-card,
    round-set, exact, brute. *)

(** {1 Portfolio routing}

    [Auto] dispatch is data: a {!routing} table — an ordered decision
    list of threshold guards over cheap structural {!features} — picks
    the method. The installed default is {!fitted_routing}, fitted from
    measured corpus runs (bench/corpus.ml + bench/tune.ml, recorded in
    [bench/corpus_rows.json], checked in as [bench/routing.json]); the
    PR-4 {!hand_set_routing} is kept as the champion baseline every
    challenger table must beat and as the fall-through when no rule
    matches. *)

type features = {
  f_attrs : int;  (** attribute count *)
  f_modules : int;  (** private module count *)
  f_depth : int;  (** longest producer-to-consumer module chain *)
  f_fanout : int;  (** max consumers of any single attribute *)
  f_lmax : int;  (** longest requirement list ({!Instance.lmax}) *)
  f_card_frac : float;
      (** fraction of private modules in cardinality form; [1.0] iff
          {!Exact.all_cardinality} *)
  f_public_frac : float;  (** publics / (publics + private modules) *)
}

val features_of_instance : Instance.t -> features
(** One O(modules + wiring) pass; the corpus generators tag instances
    with exactly these numbers, so fitted tables are evaluated on what
    [choose] will see. *)

val feature_names : string list
(** The guard spellings: the {!features} fields as ["attrs"],
    ["modules"], ["depth"], ["fanout"], ["lmax"], ["card_frac"],
    ["public_frac"], plus the request pseudo-feature ["deadline_ms"]
    (infinity when the request has no deadline). *)

type cmp = Le | Lt | Gt | Ge

type guard = { g_feat : string; g_cmp : cmp; g_val : float }
(** [g_feat g_cmp g_val], e.g. [attrs Le 8.]. *)

type rule = { guards : guard list; route : meth }
(** Fires when every guard holds ([guards = []] always fires). *)

type routing = { r_name : string; rules : rule list }

val cmp_to_string : cmp -> string
val cmp_of_string : string -> cmp option

val hand_set_routing : routing
(** The PR-4 strategy as a table: brute ≤ 10 attrs; under a tight
    deadline an LP-rounding method matched to the constraint form or
    greedy; otherwise exact. The champion baseline for
    champion/challenger tuning. *)

val fitted_routing : routing
(** The compiled-in default: fitted by bench/tune.ml on the seed-42
    generated corpus ([bench/corpus_rows.json]); the same table is
    checked in as [bench/routing.json] and a test keeps them equal. *)

val routing : unit -> routing
(** The installed table consulted by {!choose}; {!fitted_routing}
    unless {!set_routing} changed it. *)

val set_routing : routing -> unit
(** Install a table process-wide (the CLI's [--routing FILE]). *)

val route : routing -> features -> deadline_ms:float option -> meth
(** Evaluate the decision list: the first rule whose guards all hold
    routes, subject to two safety clamps — [Brute] above
    {!Exact.brute_force_limit} attributes becomes [Exact], and
    [Round_card] on instances with explicit set constraints becomes
    [Round_set] — so the result never refuses the instance. No rule
    matching falls through to the hand-set strategy. Never returns
    [Auto]. *)

val route_explain :
  routing -> features -> deadline_ms:float option -> meth * string
(** {!route} plus a one-line human-readable account of which rule fired
    (and any clamp applied), for the CLI's [--explain-route]. *)

val choose : request -> meth
(** [route (routing ()) (features_of_instance req.inst)
    ~deadline_ms:req.deadline_ms]. *)

val choose_explain : request -> meth * string

val routing_to_json : routing -> Svutil.Json.t
val routing_of_json : Svutil.Json.t -> (routing, string) Stdlib.result
(** Rejects unknown feature names, non-finite thresholds, unknown or
    [auto] routes. [routing_of_json (routing_to_json t) = Ok t]. *)

val run : request -> result
(** Resolve [Auto] via {!choose} and solve with the chosen method.
    [result.method_used] records the concrete method. The LP
    relaxations take the default hybrid route ({!Lp.Simplex.Hybrid_mode}:
    exact rationals, which the rounding guarantees need), and the exact
    method first runs {!Flow.analyze} and pins its must-hide /
    may-expose verdicts as IP variable fixings: they provably preserve
    the optimal cost (the returned solution may differ among cost
    ties), their count is the [static_fixed] stat and the pass is the
    ["flow"] phase. The whole solve runs inside a ["solve"] metrics
    span whose measurement also provides the ["total"] timings entry
    (solver phases appear under ["solve/<phase>"] in the registry). *)
