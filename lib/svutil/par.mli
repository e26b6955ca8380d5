(** Parallel map over a small worker pool.

    On OCaml >= 5 this is implemented with [Domain]s (see
    [par_domains.ml]); on 4.x the build selects a sequential fallback
    ([par_seq.ml]) with the same interface, so callers never need a
    version test. Work is assigned by striding: item [i] goes to worker
    [i mod jobs], and each item is evaluated exactly once, so closures
    over per-worker mutable state are safe as long as the state is
    indexed by item (not shared across items).

    Exceptions raised by [f] are re-raised in the caller after all
    workers have joined. *)

val default_jobs : unit -> int
(** Worker count used when [?jobs] is omitted: the [SV_JOBS] environment
    variable if set to a positive integer, otherwise the runtime's
    recommended domain count (always [1] in the sequential fallback). *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map. [jobs <= 1] runs sequentially in the
    calling domain. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
