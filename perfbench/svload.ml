(* Load client for the end-to-end serve benchmark.

     svload --cli PATH --workload NAME --seed N --seconds S --trace 0|1

   Spawns [secure_view_cli serve] at its defaults (128-entry cache,
   --jobs 1) and sends one workload's seeded request stream over the
   daemon's stdin/stdout: one connection, closed loop, one request
   outstanding at a time. Each request is timed twice: wall-clock, and
   by the CPU time the daemon spent on it. The gated timings are the
   CPU times, scaled to a nominal host speed by a yardstick timed
   between requests. Every answer is checked against a reference
   optimum computed before the daemon starts. With --trace 1 each
   request the daemon answered is also replayed in-process, and each
   call into a layer's public function is timed, in the daemon's order.
   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

module T = Perfbench_traffic.Traffic
module Json = Svutil.Json
module Metrics = Svutil.Metrics
module Request = Serve.Request
module Response = Serve.Response
module Wfcheck = Analysis.Wfcheck

let now = Unix.gettimeofday

(* A fixed CPU loop, timed in ms before and after each run and printed
   beside its metrics: it tells a slower machine from a slower program
   and adjusts no metric. *)
let probe () =
  let t = now () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := ((!x * 1103515245) + i) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t) *. 1000.

(* {1 The daemon} *)

type daemon = {
  pid : int;
  oc : out_channel;
  ic : in_channel;
  err : in_channel;
  sched : Unix.file_descr;  (** the daemon's /proc/PID/schedstat *)
}

let spawn cli =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process cli [| cli; "serve" |] req_r resp_w err_w in
  List.iter Unix.close [ req_r; resp_w; err_w ];
  {
    pid;
    oc = Unix.out_channel_of_descr req_w;
    ic = Unix.in_channel_of_descr resp_r;
    err = Unix.in_channel_of_descr err_r;
    sched = Unix.openfile (Printf.sprintf "/proc/%d/schedstat" pid) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0;
  }

(* The CPU time the daemon has used so far, in ms. The first field of
   /proc/PID/schedstat is the time its task has spent running, in ns.
   It leaves out the time it waited for a CPU and, on a guest that
   accounts steal time, the time the hypervisor ran something else.
   It is exact only while the daemon is blocked, waiting for its next
   request, since the kernel adds a running task's time when it stops;
   so it first waits until /proc/PID/stat no longer shows it running. *)
let cpu_ms d =
  let rec settle k =
    let stat = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" d.pid) In_channel.input_all in
    if k > 0 && stat.[String.rindex stat ')' + 2] = 'R' then begin
      Unix.sleepf 1e-4;
      settle (k - 1)
    end
  in
  settle 1000;
  let buf = Bytes.create 64 in
  ignore (Unix.lseek d.sched 0 Unix.SEEK_SET);
  let n = Unix.read d.sched buf 0 64 in
  Scanf.sscanf (Bytes.sub_string buf 0 n) "%Ld" (fun ns -> Int64.to_float ns /. 1e6)

(* [None] when the daemon has gone away. *)
let send d line =
  match
    output_string d.oc line;
    output_char d.oc '\n';
    flush d.oc;
    input_line d.ic
  with
  | resp -> Some resp
  | exception (End_of_file | Sys_error _) -> None

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

(* Shut the daemon down, wait for it, and return the registry it dumps
   on stderr at exit. *)
let stop d =
  ignore (send d {|{"op":"shutdown"}|});
  close_out_noerr d.oc;
  let rec lines acc =
    match input_line d.err with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let dump = lines [] in
  close_in_noerr d.ic;
  close_in_noerr d.err;
  Unix.close d.sched;
  ignore (Unix.waitpid [] d.pid);
  let prefix = "serve metrics " in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        let n = String.length prefix in
        Result.to_option (Metrics.of_json (String.sub l n (String.length l - n)))
      else None)
    dump

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close d.sched with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* {1 Checking answers} *)

(* An answer is correct when it names this request, its hidden set and
   privatized modules map back to the pool workflow, are feasible there
   and cost what the answer claims, and the cost is the reference
   optimum (a proven one), or for [lp] rounding at least the optimum. *)
let correct (bases : T.base array) (r : T.request) resp =
  let ( let* ) = Option.bind in
  let names key sol =
    match Json.member key sol with
    | Some (Json.Arr l) ->
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* s = Json.to_str v in
            let* n = Hashtbl.find_opt r.T.back s in
            Some (n :: acc))
          l (Some [])
    | _ -> None
  in
  let verdict =
    let* j = Result.to_option (Json.of_string resp) in
    let* ok = Json.bool_member "ok" j in
    let* id = Json.str_member "id" j in
    let* res = Json.member "result" j in
    let* proven = Json.bool_member "proven_optimal" res in
    let* sol = Json.member "solution" res in
    let* cost = Json.str_member "cost" sol in
    let* cost = try Some (Rat.of_string cost) with Invalid_argument _ -> None in
    let* hidden = names "hidden" sol in
    let* privatized = names "privatized" sol in
    let b = bases.(r.T.base) in
    Some
      (ok
      && id = string_of_int r.T.id
      && Core.Instance.feasible b.T.inst ~hidden ~privatized
      && Rat.equal cost (Core.Instance.cost b.T.inst ~hidden ~privatized)
      && if r.T.lp then Rat.geq cost b.T.opt else proven && Rat.equal cost b.T.opt)
  in
  verdict = Some true

(* {1 The traced replay} *)

(* Layer slots, in the daemon's call order. *)
let decode = 0
and parse = 1
and preflight = 2
and derive = 3
and canon = 4
and lookup = 5
and engine = 6
and store = 7
and render = 8

let n_layers = 9

(* [Serve.Cache.find] first computes the request's
   [Core.Canon.labeling], then asks for the LRU key. The replay's cache
   takes its key from this hook, which notes when the labeling ended
   and recomputes the same digest with [Core.Canon.digest]. That splits
   canon from the rest of the lookup inside the real [find]; the hook's
   own time and allocation are left out of every figure. *)
type hook = {
  mutable labeled_at : float;
  mutable extra_s : float;
  mutable extra_words : float;
}

let hook = { labeled_at = 0.; extra_s = 0.; extra_words = 0. }

let digest_key inst =
  let t = now () and w = Gc.minor_words () in
  hook.labeled_at <- t;
  let k = Core.Canon.digest inst in
  hook.extra_words <- hook.extra_words +. (Gc.minor_words () -. w);
  hook.extra_s <- hook.extra_s +. (now () -. t);
  k

(* One request through the daemon's steps ([Serve.Daemon.solve]), with
   each layer call timed into [acc]. Returns the response line, the
   engine's registry and the request's total time. *)
let replay_line cache acc line =
  let time i f =
    let t = now () in
    let r = f () in
    acc.(i) <- acc.(i) +. ((now () -. t) *. 1000.);
    r
  in
  let reqm = Metrics.create () in
  let extra0 = hook.extra_s in
  let t0 = now () in
  let id, s, src =
    match time decode (fun () -> Request.of_json_line ~defaults:Request.default_options line) with
    | Ok { Request.id; op = Request.Solve ({ Request.source = Request.Inline src; _ } as s) } ->
        (id, s, src)
    | _ -> failwith ("replay: not an inline solve request: " ^ line)
  in
  let spec =
    match time parse (fun () -> Wf.Parse.parse_string src) with
    | Ok spec -> spec
    | Error e -> failwith ("replay: " ^ e)
  in
  if time preflight (fun () -> Wfcheck.errors (Wfcheck.check_spec spec)) <> [] then
    failwith "replay: a generated spec failed preflight";
  let inst = time derive (fun () -> Request.instance_of spec) in
  let ereq = Request.engine_request ~metrics:reqm inst s.Request.options in
  let use_cache = s.Request.use_cache && Serve.Cache.cacheable ereq in
  let cached =
    if use_cache then begin
      let t = now () in
      let x = hook.extra_s in
      let r = Serve.Cache.find cache ereq in
      let t' = now () -. (hook.extra_s -. x) in
      acc.(canon) <- acc.(canon) +. ((hook.labeled_at -. t) *. 1000.);
      acc.(lookup) <- acc.(lookup) +. ((t' -. hook.labeled_at) *. 1000.);
      r
    end
    else None
  in
  let r, status =
    match cached with
    | Some r -> ({ r with Core.Engine.stats = ("cache", "hit") :: r.Core.Engine.stats }, "hit")
    | None ->
        let r = time engine (fun () -> Core.Engine.run ereq) in
        if use_cache then begin
          time store (fun () -> Serve.Cache.store cache ereq r);
          ({ r with Core.Engine.stats = ("cache", "miss") :: r.Core.Engine.stats }, "miss")
        end
        else (r, "bypass")
  in
  (* The daemon's requests carry no registry, so neither does the
     rendered result. *)
  let r = { r with Core.Engine.metrics = Metrics.nop } in
  let response =
    time render (fun () ->
        Response.ok_fields ?id
          [ ("cache", Response.str status); ("result", Response.engine_result ~timings:false r) ])
  in
  let total = (now () -. t0 -. (hook.extra_s -. extra0)) *. 1000. in
  (response, reqm, total)

(* The replay's state and its sums over the timed requests. *)
type tracer = {
  cache : Serve.Cache.t;
  cache_reg : Metrics.t;  (** the replay cache's serve.* counters, whole stream *)
  mutable at_timed : Metrics.t;  (** those counters when timing began *)
  layer_ms : float array;
  mutable total_ms : float;
  engine_reg : Metrics.t;  (** the engine registries of the timed requests *)
  mutable minor_words : float;
  mutable major_collections : int;
  mutable same_answers : bool;
}

let tracer () =
  let cache_reg = Metrics.create () in
  {
    cache = Serve.Cache.create ~key:digest_key ~metrics:cache_reg ~capacity:128 ();
    cache_reg;
    at_timed = Metrics.create ();
    layer_ms = Array.make n_layers 0.;
    total_ms = 0.;
    engine_reg = Metrics.create ();
    minor_words = 0.;
    major_collections = 0;
    same_answers = true;
  }

(* Replay a line the daemon has just answered; it must answer byte for
   byte as the daemon did. Only timed requests add to the sums. *)
let replay tr ~timed line answer =
  let acc = if timed then tr.layer_ms else Array.make n_layers 0. in
  let x0 = hook.extra_words in
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let resp, reqm, total = replay_line tr.cache acc line in
  let w1 = Gc.minor_words () and m1 = (Gc.quick_stat ()).Gc.major_collections in
  if answer <> Some resp then tr.same_answers <- false;
  if timed then begin
    tr.total_ms <- tr.total_ms +. total;
    Metrics.absorb tr.engine_reg reqm;
    tr.minor_words <- tr.minor_words +. (w1 -. w0) -. (hook.extra_words -. x0);
    tr.major_collections <- tr.major_collections + (m1 - m0)
  end

(* {1 The timed run} *)

let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median l = quantile (sorted (Array.of_list l)) 0.5

(* {2 The yardstick} *)

(* The host's speed drifts by a quarter or more over minutes, and the
   daemon's CPU time drifts with it: the serve path allocates about
   1 MB per request, so it slows with the memory system the host's
   other tenants share. The yardstick is a fixed piece of work of the
   same kind, built on the standard library alone, so no change to the
   code under test moves it. It tokenizes and interns text and prints
   it back, as parsing and rendering do; groups a table's rows by every
   projection, as derivation does; and sorts and digests, as canonical
   labeling does. It runs in the client while the daemon waits for its
   next request. Each gated timing is scaled by [nominal_yard_ms] over
   the yardstick's median time in the same stretch of the run. *)
let nominal_yard_ms = 4.0

module SM = Map.Make (String)

let yard_text =
  lazy
    (let st = Random.State.make [| 11 |] in
     let word n f = String.concat " " (List.init n (fun _ -> f (Random.State.int st 500))) in
     String.concat "\n"
       (List.init 300 (fun i ->
            Printf.sprintf "row m%d %s -> %s" (i mod 37)
              (word 6 (fun v -> string_of_int (v land 1)))
              (word 3 (fun v -> "a" ^ string_of_int v)))))

(* One yardstick, in ms. *)
let yardstick () =
  let text = Lazy.force yard_text in
  let t = Sys.time () in
  let toks = List.concat_map (String.split_on_char ' ') (String.split_on_char '\n' text) in
  let h = Hashtbl.create 64 in
  List.iter (fun w -> Hashtbl.replace h w (1 + Option.value ~default:0 (Hashtbl.find_opt h w))) toks;
  let b = Buffer.create 4096 in
  SM.iter (fun k v -> Printf.bprintf b "%s=%d;" k v) (Hashtbl.fold SM.add h SM.empty);
  let sorted = Array.of_list toks in
  Array.sort compare sorted;
  Buffer.add_string b (String.concat "," (Array.to_list sorted));
  ignore (Sys.opaque_identity (Digest.string (Buffer.contents b)));
  (* A 64-row table over 9 columns, grouped by each of its 512
     projections. *)
  let rows = Array.init 64 (fun i -> i lor (((i * 37) + 11) land 7 lsl 6)) in
  for sub = 0 to 511 do
    let h = Hashtbl.create 64 in
    Array.iter
      (fun r ->
        let k = r land sub in
        Hashtbl.replace h k (r :: Option.value ~default:[] (Hashtbl.find_opt h k)))
      rows;
    ignore (Sys.opaque_identity (Hashtbl.length h))
  done;
  (Sys.time () -. t) *. 1000.

(* The yardstick's median over [k] runs, in ms. *)
let yard k = median (List.init k (fun _ -> yardstick ()))

let ping = {|{"id":"ping","op":"ping"}|}

(* A set-up's wall-clock seconds, the CPU seconds the daemon used, and
   the yardstick's time right after it. *)
type setup = { wall_s : float; cpu_s : float; yard_ms : float }

(* Spawn to first pong, then the workload's warm phase. *)
let set_up cli (warm : T.request list) =
  let t0 = now () in
  let d = spawn cli in
  let pong = send d ping in
  let answers = List.map (fun (r : T.request) -> (r, send d r.T.line)) warm in
  let wall_s = now () -. t0 in
  if pong = None then failwith "daemon did not answer ping";
  let cpu_s = cpu_ms d /. 1000. in
  (d, { wall_s; cpu_s; yard_ms = yard 5 }, answers)

(* A p99 needs ten samples beyond it. *)
let min_requests = 1000

(* Requests between two yardsticks in a timed run. *)
let yard_every = 200

(* Closed loop until [seconds] of wall-clock time have passed (and
   [min_requests] were sent), or for exactly [count] requests. [after]
   sees each answer as it arrives. Returns each request's wall-clock
   latency and the daemon's CPU time for it, both in ms, the
   yardstick's times, and the elapsed seconds, leaving out the time
   spent generating requests, in [after] and on yardsticks. A
   request's CPU time is read after [after], when the daemon is
   waiting for the next request. *)
let drive d (next : unit -> T.request) ~limit ~after =
  let lat = ref [] and cpu = ref [] and yards = ref [] and n = ref 0 and aside = ref 0. in
  let pending = Queue.create () in
  let t0 = now () in
  let go () =
    match limit with
    | `Count c -> !n < c
    | `Seconds s -> !n < min_requests || now () -. t0 < s
  in
  let alive = ref true and used = ref (cpu_ms d) in
  while !alive && go () do
    if Queue.is_empty pending then begin
      let g = now () in
      for _ = 1 to 64 do
        Queue.add (next ()) pending
      done;
      aside := !aside +. (now () -. g)
    end;
    let r = Queue.pop pending in
    let s = now () in
    let resp = send d r.T.line in
    let e = now () in
    incr n;
    lat := ((e -. s) *. 1000.) :: !lat;
    after r resp;
    if resp = None then alive := false
    else begin
      let u = cpu_ms d in
      cpu := (u -. !used) :: !cpu;
      used := u
    end;
    if !n mod yard_every = 0 then yards := yardstick () :: !yards;
    aside := !aside +. (now () -. e)
  done;
  let arr l = Array.of_list (List.rev l) in
  (arr !lat, arr !cpu, !yards, now () -. t0 -. !aside)

(* One drive of the timed run. *)
type slice = {
  lat : float array;  (** wall-clock latency per request, ms *)
  cpu : float array;  (** the daemon's CPU time per request, ms *)
  yard : float;  (** the yardstick's median time during the drive, ms *)
  busy : float;  (** the drive's length without client-side work, s *)
}

type served = {
  attempted : int;
  failed : int;
  setups : setup list;
  slices : slice list;
  rss_mb : float;
  dumped : Metrics.t option;  (** the registry the daemon dumped at exit *)
}

(* The timed run is [slices] drives of [limit] each, all to the first
   daemon set up. Between each two, set-up is measured again with a
   fresh daemon, which is then stopped, so the median set-up time
   samples the host across the whole run, as the latencies do. With a
   [tracer] ([slices] = 1), every request the timed daemon answers is
   replayed in-process right after it. *)
let serve_workload ~cli ~seed ~limit ~slices ?tracer wl =
  let pool = Array.of_list (T.pool_workflows wl) in
  let bases = Array.map T.base_of pool in
  let stream = T.stream ~seed wl pool in
  let attempted = ref 0 and failed = ref 0 in
  let after ~timed (r : T.request) resp =
    incr attempted;
    (match resp with Some s when correct bases r s -> () | _ -> incr failed);
    Option.iter (fun tr -> replay tr ~timed r.T.line resp) tracer
  in
  let set_up_checked () =
    let d, setup, answers = set_up cli stream.T.warm in
    List.iter (fun (r, resp) -> after ~timed:false r resp) answers;
    (d, setup)
  in
  let d, first = set_up_checked () in
  Option.iter (fun tr -> tr.at_timed <- Metrics.merge tr.cache_reg (Metrics.create ())) tracer;
  let rec run k done_ setups =
    let lat, cpu, yards, busy = drive d stream.T.next ~limit ~after:(after ~timed:true) in
    let yard = if yards = [] then yardstick () else median yards in
    let done_ = { lat; cpu; yard; busy } :: done_ in
    if k = slices then (List.rev done_, List.rev setups)
    else begin
      let spare, setup = set_up_checked () in
      ignore (stop spare);
      run (k + 1) done_ (setup :: setups)
    end
  in
  let slices, setups =
    try run 1 [] [ first ]
    with e ->
      kill d;
      raise e
  in
  let rss_mb = peak_rss_mb d.pid in
  let dumped = stop d in
  { attempted = !attempted; failed = !failed; setups; slices; rss_mb; dumped }

(* {1 Reports} *)

type outcome = {
  ok : bool;  (** answers and trace consistency checks passed *)
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : (string * float * string) list;  (** printed, not in the result line *)
}

let sum = Array.fold_left ( +. ) 0.

(* Each timing is taken per slice (per set-up for [setup_s]) and
   reported as the median over them, so a burst of host noise moves one
   slice, not the figure. The gated timings are the daemon's CPU time,
   scaled to the nominal host speed by the yardstick timed in the same
   slice: a time is multiplied by [nominal_yard_ms] over the
   yardstick's time. The raw CPU and wall-clock figures are printed
   beside them. *)
let end_to_end (s : served) =
  let per f = median (List.map f s.slices) in
  let q a p = quantile (sorted a) p in
  let scaled x v = v *. nominal_yard_ms /. x.yard in
  let cpu_rps x = float_of_int (Array.length x.cpu) /. (sum x.cpu /. 1000.) in
  let setup f = median (List.map f s.setups) in
  {
    ok = s.failed = 0;
    attempted = s.attempted;
    failed = s.failed;
    metrics =
      [
        ("setup_s", setup (fun u -> u.cpu_s *. nominal_yard_ms /. u.yard_ms), "s");
        ("cpu_p50_ms", per (fun x -> scaled x (q x.cpu 0.5)), "ms");
        ("cpu_p99_ms", per (fun x -> scaled x (q x.cpu 0.99)), "ms");
        ("cpu_throughput_rps", per (fun x -> cpu_rps x *. x.yard /. nominal_yard_ms), "req/s");
        ("peak_rss_mb", s.rss_mb, "MB");
        ("ok_frac", 1. -. (float_of_int s.failed /. float_of_int s.attempted), "fraction");
      ];
    notes =
      [
        ("yardstick_ms", per (fun x -> x.yard), "ms");
        ("raw_setup_cpu_s", setup (fun u -> u.cpu_s), "s");
        ("raw_cpu_p50_ms", per (fun x -> q x.cpu 0.5), "ms");
        ("raw_cpu_p99_ms", per (fun x -> q x.cpu 0.99), "ms");
        ("raw_cpu_throughput_rps", per cpu_rps, "req/s");
        ("setup_wall_s", setup (fun u -> u.wall_s), "s");
        ("req_p50_ms", per (fun x -> q x.lat 0.5), "ms");
        ("req_p99_ms", per (fun x -> q x.lat 0.99), "ms");
        ("throughput_rps", per (fun x -> float_of_int (Array.length x.lat) /. x.busy), "req/s");
        ("failed_frac", float_of_int s.failed /. float_of_int s.attempted, "fraction");
      ];
  }

let serve_counters = [ "serve.hits"; "serve.misses"; "serve.evictions"; "serve.collisions" ]

let per_layer (s : served) tr =
  (* The replay must have counted the same cache events as the daemon. *)
  let same_counts =
    match s.dumped with
    | None -> false
    | Some reg ->
        List.for_all
          (fun k -> Metrics.counter_value reg k = Metrics.counter_value tr.cache_reg k)
          serve_counters
  in
  if not tr.same_answers then prerr_endline "svload: replay answers differ from the daemon's";
  if not same_counts then prerr_endline "svload: replay cache counts differ from the daemon's";
  let lat_ms = Array.concat (List.map (fun x -> x.lat) s.slices) in
  let n = float_of_int (Array.length lat_ms) in
  let per x = x /. n in
  let c reg k = float_of_int (Metrics.counter_value reg k) in
  let timed k = c tr.cache_reg k -. c tr.at_timed k in
  let span k = match Metrics.span_stats tr.engine_reg k with Some (_, ms) -> ms | None -> 0. in
  let frac a b = if b = 0. then 0. else a /. b in
  let e = tr.engine_reg in
  let ms i = per tr.layer_ms.(i) in
  let hits = timed "serve.hits" and misses = timed "serve.misses" in
  let decided = c e "flow.must_hide" +. c e "flow.may_expose" in
  let accepts = c e "certify.accepts" in
  {
    ok = s.failed = 0 && tr.same_answers && same_counts;
    attempted = s.attempted;
    failed = s.failed;
    metrics =
      [
        ("decode.ms", ms decode, "ms");
        ("parse.ms", ms parse, "ms");
        ("preflight.ms", ms preflight, "ms");
        ("derive.ms", ms derive, "ms");
        ("canon.ms", ms canon, "ms");
        ("cache.lookup_ms", ms lookup, "ms");
        ("cache.store_ms", ms store, "ms");
        ("engine.ms", ms engine, "ms");
        ("engine.flow_ms", per (span "solve/flow"), "ms");
        ("engine.search_ms", per (span "solve/search"), "ms");
        ("engine.round_ms", per (span "solve/lp" +. span "solve/round"), "ms");
        ("render.ms", ms render, "ms");
        ("cache.hit_ratio", frac hits (hits +. misses), "fraction");
        ("cache.collisions", per (timed "serve.collisions"), "count");
        ("cache.evictions", per (timed "serve.evictions"), "count");
        ("flow.decided_frac", frac decided (decided +. c e "flow.undecided"), "fraction");
        ("ilp.nodes", per (c e "ilp.nodes"), "count");
        ("ilp.static_fixed", per (c e "ilp.static_fixed"), "count");
        ("simplex.pivots", per (c e "simplex.pivots"), "count");
        ("simplex.hybrid.float_pivots", per (c e "simplex.hybrid.float_pivots"), "count");
        ( "certify.accept_frac",
          frac accepts (accepts +. c e "certify.repairs" +. c e "certify.fallbacks"),
          "fraction" );
        ("certify.fallbacks", per (c e "certify.fallbacks"), "count");
        ("gc.minor_words", per tr.minor_words, "words");
        ("gc.major_collections", per (float_of_int tr.major_collections), "count");
        ("daemon.io_ms", per (sum lat_ms -. tr.total_ms), "ms");
        ("trace.total_ms", per tr.total_ms, "ms");
        ("trace.coverage", frac (sum tr.layer_ms) tr.total_ms, "fraction");
      ];
    notes = [];
  }

(* Requests per traced run and second of --seconds. The traced run sends
   a fixed count, so its counts repeat exactly for a seed; each request
   costs about twice its latency, once in the daemon and once replayed. *)
let traced_rate = function T.Solve_uncached -> 300 | T.Mixed_churn -> 450

(* An end-to-end run's slices, and so its set-ups. *)
let n_slices = 10

let run_workload ~cli ~seed ~seconds ~trace wl =
  let before = probe () in
  let o =
    if trace then begin
      let tr = tracer () in
      let count = max min_requests (int_of_float seconds * traced_rate wl) in
      per_layer (serve_workload ~cli ~seed ~slices:1 ~tracer:tr wl ~limit:(`Count count)) tr
    end
    else
      let limit = `Seconds (seconds /. float_of_int n_slices) in
      end_to_end (serve_workload ~cli ~seed ~slices:n_slices wl ~limit)
  in
  Printf.printf "host_probe_ms before=%.3f after=%.3f\n" before (probe ());
  o

let print_result o =
  let line (name, v, unit) = Printf.printf "  %-28s %16.6f %s\n" name v unit in
  List.iter line o.metrics;
  if o.notes <> [] then begin
    print_endline "  printed only:";
    List.iter line o.notes
  end;
  let metric (name, v, unit) =
    (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool o.ok);
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ("metrics", Json.Obj (List.map metric o.metrics));
          ]))

let () =
  let cli = ref "" and workload = ref "" and seed = ref 1 in
  let seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--cli", Arg.Set_string cli, "PATH the secure_view_cli executable");
      ( "--workload",
        Arg.Set_string workload,
        "NAME solve_uncached, mixed_churn, or all" );
      ("--seed", Arg.Set_int seed, "N traffic seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer replay instead of end-to-end metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "svload --cli PATH --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let selected =
    if !workload = "all" then T.workloads
    else
      match List.assoc_opt !workload T.workloads with
      | Some w -> [ (!workload, w) ]
      | None ->
          prerr_endline ("svload: unknown workload " ^ !workload);
          exit 2
  in
  if !cli = "" || not (Sys.file_exists !cli) then begin
    prerr_endline "svload: --cli must name the secure_view_cli executable";
    exit 2
  end;
  List.iter
    (fun (name, wl) ->
      Printf.printf "workload %s seed %d\n%!" name !seed;
      let o = run_workload ~cli:!cli ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) wl in
      print_result o)
    selected
