(** Privacy-flow analysis over workflow DAGs.

    Layers the wiring-aware analyses on top of {!Core.Flow}'s
    requirement-level verdicts:

    - {e dependency closures}: per-attribute forward (downstream) and
      backward (upstream) transitive dependency sets over the module
      wiring — the reuse surface for the incremental engine
      (ROADMAP item 2);
    - {e reachability lattice}: attribute -> [Independent] ⊑
      [Derivable] ⊑ [Hidden], a fixpoint seeded from the verdicts and
      propagated through public modules (whose functions the adversary
      knows, coupling their attributes);
    - {e per-module Gamma bounds}: the standalone privacy every
      feasible view already guarantees (under the must-hide set) and
      the achievable ceiling;
    - {e findings}: the facts {!Wfcheck} renders as W05x lint codes.

    The CLI [flow] subcommand prints {!to_text} / {!to_json}. *)

type level = Independent | Derivable | Hidden

val level_to_string : level -> string

type attr_info = {
  attr : string;
  cost : Rat.t;
  level : level;
  verdict : Core.Flow.verdict option;
  upstream : string list;  (** attributes it transitively depends on *)
  downstream : string list;  (** attributes transitively depending on it *)
}

type module_info = {
  m_name : string;
  public : bool;
  gamma_requested : int;  (** 1 for public modules: no requirement *)
  gamma_guaranteed : int;
      (** a sound lower bound on the standalone privacy every feasible
          view provides: [min_out_size] with only the must-hide set
          hidden (Proposition 1 monotonicity) *)
  gamma_achievable : int;
      (** [max_achievable_gamma]'s ceiling; saturates at [max_int] *)
}

type finding =
  | Useless_cost of { attr : string; cost : Rat.t }
      (** the attribute is [Independent] — no requirement references
          it, no public module couples it to anything relevant — yet it
          carries a positive hiding cost (lint code W050) *)
  | Forced_privatization of { p_name : string; p_cost : Rat.t; attr : string }
      (** the public module adjoins a must-hide attribute, so every
          feasible solution pays its privatization cost (W051) *)

type t = {
  kernel : Core.Flow.t;
  attrs : attr_info list;
  modules : module_info list;
  findings : finding list;
}

val closures :
  Wf.Workflow.t -> (string -> string list) * (string -> string list)
(** [(upstream, downstream)] transitive dependency closures over the
    wiring, each sorted. One linear pass per direction (delegates to
    {!Core.Delta.wiring_closures}). *)

val analyze_workflow :
  ?publics:(string * Rat.t) list ->
  ?gamma_overrides:(string * int) list ->
  gamma:int ->
  cost:(string -> Rat.t) ->
  ?metrics:Svutil.Metrics.t ->
  Wf.Workflow.t ->
  t

val analyze : ?metrics:Svutil.Metrics.t -> Wf.Parse.spec -> t
(** {!analyze_workflow} with the spec's costs, publics and gammas — the
    same instance the CLI solvers build. *)

val finding_to_string : finding -> string
val to_text : t -> string
val to_json : t -> string
