(** The long-lived serve loop: JSON-lines requests on stdin/stdout or a
    Unix-domain socket, in front of {!Core.Engine} with the
    {!Cache} solution cache.

    One request object per input line, one response object per output
    line (see {!Request} for the protocol fields). Blank lines are
    skipped. The loop is single-threaded and runs one request at a
    time; socket mode serves one connection at a time.

    Beside the solution cache the daemon keeps one derivation memo
    ({!Request.memo}) for its lifetime: each distinct (table, Gamma) of
    a private module is derived once, and every later request that
    carries it, under any names, reads the stored derivation. Its bounds
    are fixed ({!Request.memo_capacity} entries, none over
    {!Request.memo_max_bytes}); no flag or config field sets them.
    Answers are the same as without it.

    Observability: the server registry collects
    [serve.{hits,misses,evictions,collisions,verify_failures}]
    counters, [serve.derive_hits] and [serve.derive_misses] (one per
    private module derived through the memo) and
    [serve/{parse,preflight,derive,lookup,solve,store}]
    spans: [serve/parse] covers {!Wf.Parse} alone, [serve/preflight] the
    Wfcheck static check ({!Request.check_static}) of every spec that
    parsed, [serve/derive] the requirement derivation
    ({!Request.instance_of}, memo lookups included) of every spec the
    preflight admitted.
    [SIGUSR1] dumps the stats and registry to stderr without disturbing
    the loop; shutdown (EOF, a [shutdown] request, or end of socket
    serving) dumps them a final time. *)

type config = {
  cache_capacity : int;  (** LRU entries; at least 1 *)
  defaults : Request.options;  (** per-request option defaults *)
  verify_hits : bool;
      (** differentially verify every cache hit: re-solve from scratch
          and fail the request (kind [internal], the [serve.drift]
          counter) on any optimum drift. For tests and the
          [serve-examples] gate — it re-pays the solve the cache
          saved. *)
  metrics : Svutil.Metrics.t;  (** the server registry *)
}

val default_config : unit -> config
(** 128 cache entries, {!Request.default_options}, no hit
    verification, a fresh live registry. *)

type t
(** A running daemon: solution cache, derivation memo and counters. *)

val create : config -> t

val stats_json : t -> string
(** The [stats] response body: requests, hits, misses, evictions,
    cache size and capacity. *)

val handle_line : t -> string -> string option * [ `Continue | `Stop ]
(** Process one request line: [None] for a blank line, [Some response]
    otherwise; [`Stop] after a [shutdown] request. Exposed for
    in-process tests. *)

val serve_channels : t -> in_channel -> out_channel -> [ `Eof | `Shutdown ]
(** Run the loop until EOF or a [shutdown] request, flushing after
    every response. A [Sys_error] on either channel — the client
    closed its end, or reset the connection — ends the session with
    [`Eof]; a write to a closed pipe raises it only when [SIGPIPE] is
    ignored, as {!run_stdio} and {!run_socket} arrange. *)

val dump_stats : t -> out_channel -> unit
(** The SIGUSR1/shutdown dump: one [serve stats {…}] line and one
    [serve metrics {…}] line. *)

val run_stdio : config -> unit
(** Serve stdin → stdout; ignores [SIGPIPE], installs the SIGUSR1
    handler and dumps stats on exit, also when the client closed
    stdout first. *)

val run_socket : config -> string -> unit
(** Serve a Unix-domain socket at the given path (unlinked first if it
    exists, and on exit), one connection at a time, until a connection
    sends [shutdown]. Ignores [SIGPIPE]; installs the SIGUSR1
    handler. *)
