(* The serve loop. Single-threaded by design: requests are handled one
   at a time. All state lives in [t]; the signal handler only reads. *)

module Metrics = Svutil.Metrics

type config = {
  cache_capacity : int;
  defaults : Request.options;
  verify_hits : bool;
  metrics : Metrics.t;
}

let default_config () =
  {
    cache_capacity = 128;
    defaults = Request.default_options;
    verify_hits = false;
    metrics = Metrics.create ();
  }

type t = { cfg : config; cache : Cache.t; memo : Request.memo; mutable requests : int }

let create cfg =
  {
    cfg;
    cache = Cache.create ~metrics:cfg.metrics ~capacity:cfg.cache_capacity ();
    memo = Request.create_memo ~metrics:cfg.metrics ();
    requests = 0;
  }

let stats_json t =
  Response.assoc
    [
      ("requests", string_of_int t.requests);
      ("hits", string_of_int (Cache.hits t.cache));
      ("misses", string_of_int (Cache.misses t.cache));
      ("evictions", string_of_int (Cache.evictions t.cache));
      ("size", string_of_int (Cache.length t.cache));
      ("capacity", string_of_int (Cache.capacity t.cache));
    ]

let dump_stats t oc =
  Printf.fprintf oc "serve stats %s\nserve metrics %s\n%!" (stats_json t)
    (Metrics.to_json t.cfg.metrics)

(* Differential verification of a cache hit: re-solve the same request
   from scratch (fresh nop registry, no cache) and require the same
   optimum. This is the no-drift acceptance check, available at runtime
   behind --verify-hits. *)
let verify_hit t (ereq : Core.Engine.request) (r : Core.Engine.result) =
  let scratch =
    Core.Engine.run { ereq with Core.Engine.metrics = Metrics.nop }
  in
  let cost (x : Core.Engine.result) =
    Option.map
      (fun (s : Core.Solution.t) -> s.Core.Solution.cost)
      x.Core.Engine.solution
  in
  match (cost r, cost scratch) with
  | None, None -> Ok ()
  | Some a, Some b when Rat.equal a b -> Ok ()
  | a, b ->
      Metrics.tick t.cfg.metrics "serve.drift";
      let show = function
        | Some c -> Rat.to_string c
        | None -> "infeasible"
      in
      Error
        (Request.Internal
           (Printf.sprintf "cache drift: hit %s, re-solve %s" (show a)
              (show b)))

let solve t id (s : Request.solve) =
  let file, parsed =
    Metrics.span t.cfg.metrics "serve/parse" (fun () ->
        match s.Request.source with
        | Request.File path -> (path, Request.spec_of_file path)
        | Request.Inline src -> (Request.inline_name, Request.spec_of_string src))
  in
  let loaded =
    Result.bind parsed (fun spec ->
        Metrics.span t.cfg.metrics "serve/preflight" (fun () ->
            Request.check_static ~file spec))
  in
  match loaded with
  | Error e -> Response.error ?id e
  | Ok spec ->
      let inst =
        Metrics.span t.cfg.metrics "serve/derive" (fun () ->
            Request.instance_of ~memo:t.memo spec)
      in
      let reqm =
        if s.Request.want_metrics then Metrics.create () else Metrics.nop
      in
      let ereq = Request.engine_request ~metrics:reqm inst s.Request.options in
      let r, status = Cache.solve ~use_cache:s.Request.use_cache t.cache ereq in
      let verified =
        if t.cfg.verify_hits && status = Cache.Hit then verify_hit t ereq r
        else Ok ()
      in
      match verified with
      | Error e -> Response.error ?id e
      | Ok () ->
          if s.Request.want_metrics then Metrics.absorb t.cfg.metrics reqm;
          Response.ok_fields ?id
            [
              ("cache", Response.str (Cache.status_to_string status));
              ("result", Response.engine_result ~timings:s.Request.want_timings r);
            ]

let handle_line t line =
  if String.trim line = "" then (None, `Continue)
  else
    match Request.of_json_line ~defaults:t.cfg.defaults line with
    | Error (id, e) -> (Some (Response.error ?id e), `Continue)
    | Ok { Request.id; op } -> (
        t.requests <- t.requests + 1;
        match op with
        | Request.Ping ->
            (Some (Response.ok_fields ?id [ ("pong", "true") ]), `Continue)
        | Request.Stats ->
            (Some (Response.ok_fields ?id [ ("stats", stats_json t) ]), `Continue)
        | Request.Shutdown ->
            (Some (Response.ok_fields ?id [ ("shutdown", "true") ]), `Stop)
        | Request.Solve s -> (Some (solve t id s), `Continue))

(* [input_line] aborted by a handled signal (SIGUSR1 stats dump) raises
   Sys_error "Interrupted system call"; retry those. Any other failure
   of the client's channel (a reset connection) reads as end of input. *)
let rec read_line_opt ic =
  match input_line ic with
  | line -> Some line
  | exception End_of_file -> None
  | exception Sys_error msg
    when String.length msg >= 11
         && String.lowercase_ascii (String.sub msg 0 11) = "interrupted" ->
      read_line_opt ic
  | exception Sys_error _ -> None

let serve_channels t ic oc =
  let rec loop () =
    match read_line_opt ic with
    | None -> `Eof
    | Some line -> (
        let response, continue = handle_line t line in
        (* A client that stopped reading (EPIPE) ends the session too. *)
        match
          Option.iter
            (fun r ->
              output_string oc r;
              output_char oc '\n';
              flush oc)
            response
        with
        | exception Sys_error _ -> `Eof
        | () -> (
            match continue with `Stop -> `Shutdown | `Continue -> loop ()))
  in
  loop ()

(* A vanished client must end a session, not the process: with SIGPIPE
   ignored a write to it fails with EPIPE, which [serve_channels] turns
   into [`Eof]. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let install_sigusr1 t =
  match
    Sys.signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> dump_stats t stderr))
  with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let run_stdio cfg =
  let t = create cfg in
  install_sigusr1 t;
  ignore_sigpipe ();
  let (_ : [ `Eof | `Shutdown ]) = serve_channels t stdin stdout in
  (* Nothing follows on stdout. Closing it drops a response a vanished
     client left unsent, so the flush at exit cannot fail on it. *)
  close_out_noerr stdout;
  dump_stats t stderr

let run_socket cfg path =
  let t = create cfg in
  install_sigusr1 t;
  ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      dump_stats t stderr)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      (* The SIGUSR1 handler interrupts a blocking accept with EINTR;
         retry, matching read_line_opt's treatment of input_line. *)
      let rec accept_retry () =
        try Unix.accept sock
        with Unix.Unix_error (Unix.EINTR, _, _) -> accept_retry ()
      in
      let rec accept_loop () =
        let fd, _ = accept_retry () in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let outcome = serve_channels t ic oc in
        (* ic and oc share the descriptor: flush the writer, close the
           descriptor once. *)
        (try flush oc with Sys_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match outcome with `Shutdown -> () | `Eof -> accept_loop ()
      in
      accept_loop ())
