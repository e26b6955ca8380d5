(** The shared request layer of the Serve service: one error type with a
    documented exit-code mapping, spec loading with optional static
    preflight, solver options, and the JSON-lines daemon protocol.

    Both front ends consume this module: the CLI subcommands
    ([solve]/[batch]/[flow]/[delta]) for loading and option plumbing,
    and {!Daemon} for the full protocol. Centralizing the error type is
    what makes the exit codes uniform — before this layer, [lint] exited
    2 on a parse error while [solve] exited 1.

    {2 Exit-code mapping}

    - [0]: success.
    - [1]: well-formed input that fails its checks — static lint
      errors, an unsafe proposed view, optimum drift, a batch run with
      failing files.
    - [2]: malformed input — spec/script/JSON parse errors, unknown
      module or method names, usage errors.
    - [3]: internal errors (a bug, not a user mistake). *)

type error =
  | Usage of string  (** bad request shape or field; exit 2 *)
  | Parse_error of string  (** malformed spec/script/JSON; exit 2 *)
  | Static_errors of {
      file : string;
      diagnostics : Analysis.Wfcheck.diagnostic list;
    }  (** well-formed spec failing the Wfcheck preflight; exit 1 *)
  | Unknown_name of string  (** no such module/method/op; exit 2 *)
  | Internal of string  (** invariant violation, e.g. cache drift; exit 3 *)

val exit_code : error -> int
(** The mapping documented above. *)

val kind : error -> string
(** Stable one-word tag for protocol responses: ["usage"], ["parse"],
    ["static"], ["unknown-name"], ["internal"]. *)

val message : error -> string
(** One-line human-readable message (newline-free), suitable for a JSON
    response field. *)

val text : error -> string
(** Full diagnostic text for stderr: like {!message}, but
    [Static_errors] expands to the {!Analysis.Wfcheck.to_text} listing
    followed by the summary line. *)

(** {1 Spec loading} *)

val spec_of_file : ?preflight:bool -> string -> (Wf.Parse.spec, error) result
(** Parse a workflow file; with [~preflight:true] (default [false])
    also run the {!Analysis.Wfcheck} static checks and fail with
    [Static_errors] when any has severity Error. Missing or unreadable
    files are [Parse_error]s. *)

val spec_of_string :
  ?preflight:bool -> ?name:string -> string -> (Wf.Parse.spec, error) result
(** Same for inline workflow text ([name], default ["<request>"], only
    labels diagnostics). *)

val check_static : file:string -> Wf.Parse.spec -> (Wf.Parse.spec, error) result
(** The preflight alone: {!Analysis.Wfcheck.check_spec}, failing with
    [Static_errors] (labelled [file]) when any diagnostic is an Error.
    [~preflight:true] above is parsing followed by this. *)

val inline_name : string
(** ["<request>"], the label of inline workflow text. *)

(** {1 Building the instance} *)

type memo
(** A bounded memo of requirement derivations, keyed by a private
    module's content ({!Core.Derive.key}: Gamma, the input and output
    counts, the domains and the sorted rows) and compared in full by
    {!Svutil.Lru}, so no digest is trusted. Renamed modules and shuffled
    rows share an entry. A memo is mutable state for one thread: the
    daemon owns one ({!Daemon}), while the CLI's one-shot paths and
    [batch --jobs], which builds instances on several domains, pass
    none. *)

val memo_capacity : int
(** 1,024 entries; a fresh entry beyond it evicts the least recently
    used one. *)

val memo_max_bytes : int
(** 4,096: a module whose key, plus 8 bytes per int of its derivation,
    is longer is derived but not stored. With {!memo_capacity} this
    bounds what a memo keeps. *)

val create_memo : ?metrics:Svutil.Metrics.t -> unit -> memo
(** An empty memo. Each private module {!instance_of} derives through
    it ticks [serve.derive_hits] or [serve.derive_misses] in [metrics]
    (default {!Svutil.Metrics.nop}). *)

val memo_entries : memo -> Core.Derive.derived Svutil.Lru.t
(** The stored derivations by key, for tests. *)

val instance_of : ?memo:memo -> Wf.Parse.spec -> Core.Instance.t
(** Build the Secure-View instance (shared by CLI and daemon). With
    [memo], each private module's derivation is looked up by its key
    first and derived only on a miss; only the mapping of the derived
    masks to this request's attribute ids
    ({!Core.Instance.req_of_derived}) runs on a hit. The instance is the
    same with or without a memo, and an exception from
    {!Core.Derive.derive} is raised as without one and not stored. *)

(** {1 Solver options} *)

type options = {
  meth : Core.Engine.meth;
  node_limit : int;
  seed : int;
  deadline_ms : float option;
  trials : int;
}
(** The method-independent knobs of {!Core.Engine.request}, as a plain
    record so front ends can carry defaults around. *)

val default_options : options
(** Matches {!Core.Engine.default_request}. *)

val engine_request :
  ?metrics:Svutil.Metrics.t -> Core.Instance.t -> options -> Core.Engine.request

val method_names : (string * Core.Engine.meth) list
(** The CLI spellings, shared with the daemon protocol: [auto],
    [greedy], [lp] (set-LP threshold rounding), [alg1] (cardinality-LP
    randomized rounding), [exact], [brute]. *)

val method_of_name : string -> Core.Engine.meth option

(** {1 The JSON-lines protocol}

    One request object per line. Fields of a [solve] request (all
    optional except the workflow source):

    - ["op"]: ["solve"] (default), ["ping"], ["stats"], ["shutdown"];
    - ["id"]: echoed verbatim in the response (string or number);
    - ["workflow"] (inline spec text) or ["file"] (path) — exactly one;
    - ["method"], ["node_limit"], ["seed"], ["deadline_ms"] (a finite
      number), ["trials"]: per-request overrides of the daemon's
      defaults;
    - ["cache"]: consult/populate the solution cache (default [true]);
    - ["metrics"]: include a per-request metrics registry in the
      response (default [false]);
    - ["timings"]: include wall-clock timings in the response (default
      [false], so responses are byte-stable across runs).

    [ping], [stats] and [shutdown] take only ["op"] and ["id"]. *)

type source = Inline of string | File of string

type solve = {
  source : source;
  options : options;
  use_cache : bool;
  want_metrics : bool;
  want_timings : bool;
}

type op = Solve of solve | Ping | Stats | Shutdown
type t = { id : string option; op : op }

val of_json_line :
  defaults:options -> string -> (t, string option * error) result
(** Decode one protocol line. A field outside the op's set above, a
    wrong-typed field, a non-finite ["deadline_ms"], an unknown
    op/method, and a missing workflow source are [Usage]/[Unknown_name]
    errors. A decode error carries the request's ["id"] when one was
    readable, so the error response can still echo it. *)
