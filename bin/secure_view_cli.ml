(* Command-line interface to the Secure-View library.

   secure_view_cli show FILE            print the workflow and its relation
   secure_view_cli lint FILE            static diagnostics (Wfcheck)
   secure_view_cli analyze FILE MODULE  standalone privacy analysis
   secure_view_cli solve FILE           solve the workflow Secure-View problem
   secure_view_cli batch FILES...       solve many files, one JSON line each
   secure_view_cli check FILE --hide... validate a proposed view
   secure_view_cli flow FILE            static privacy-flow analysis
   secure_view_cli delta FILE --edits S incremental re-solve under an edit script
   secure_view_cli serve                JSON-lines solve daemon with a solution cache
   secure_view_cli corpus               generate + measure the seeded scenario corpus
   secure_view_cli tradeoff FILE MODULE privacy level per hiding budget

   All solving goes through Core.Engine: one request/result shape per
   method, deadlines, and the auto portfolio.

   FILE uses the format documented in Wf.Parse. *)

open Cmdliner
module Wfcheck = Analysis.Wfcheck

(* [analyze]/[solve]/[check] pre-flight the spec so infeasible or
   malformed inputs fail fast with a coded diagnostic instead of dying
   somewhere inside the exponential searches. Loading, diagnostics and
   the exit-code mapping (2 = malformed input, 1 = well-formed input
   failing its checks) live in Serve.Request, shared with the daemon. *)
let fail_with (e : Serve.Request.error) =
  (match e with
  | Serve.Request.Static_errors _ -> prerr_endline (Serve.Request.text e)
  | _ -> Printf.eprintf "error: %s\n" (Serve.Request.text e));
  exit (Serve.Request.exit_code e)

let load ?(preflight = false) path =
  match Serve.Request.spec_of_file ~preflight path with
  | Ok spec -> spec
  | Error e -> fail_with e

let read_all path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> fail_with (Serve.Request.Parse_error m)

let write_all path text =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc text;
      Out_channel.output_char oc '\n')

(* Cmdliner's [float] converter accepts "nan" and "inf"; budgets must
   be finite, so a non-finite value is a command line cmdliner rejects
   (exit 2). *)
let finite_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a finite number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let gamma_of (spec : Wf.Parse.spec) name =
  Option.value ~default:spec.Wf.Parse.gamma
    (List.assoc_opt name spec.Wf.Parse.gamma_overrides)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Workflow description file.")

(* show ---------------------------------------------------------------- *)

let show_cmd =
  let run file =
    let spec = load file in
    let w = spec.Wf.Parse.workflow in
    Printf.printf "modules: %s\n" (String.concat " -> " (Wf.Workflow.module_names w));
    Printf.printf "initial inputs: %s\n" (String.concat ", " (Wf.Workflow.initial_names w));
    Printf.printf "final outputs: %s\n" (String.concat ", " (Wf.Workflow.final_names w));
    Printf.printf "data sharing degree gamma = %d\n\n"
      (Wf.Workflow.data_sharing_degree w);
    Svutil.Table.print (Rel.Relation.to_table (Wf.Workflow.relation w))
  in
  Cmd.v (Cmd.info "show" ~doc:"Print the workflow structure and its provenance relation.")
    Term.(const run $ file_arg)

(* lint ----------------------------------------------------------------- *)

let lint_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.")
  in
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit non-zero on warnings too, not just errors.")
  in
  let codes_arg =
    Arg.(value & flag & info [ "codes" ] ~doc:"Print the diagnostic code reference and exit.")
  in
  let file_opt =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Workflow description file.")
  in
  let run file json strict codes =
    if codes then begin
      List.iter
        (fun (code, sev, meaning, hint) ->
          Printf.printf "%s  %-7s  %s\n           fix: %s\n" code
            (Wfcheck.severity_to_string sev) meaning hint)
        Wfcheck.code_reference;
      exit 0
    end;
    let file =
      match file with
      | Some f -> f
      | None ->
          prerr_endline "error: lint needs a FILE (or --codes)";
          exit 2
    in
    match Wf.Parse.parse_raw_file file with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 2
    | Ok raw ->
        let ds = Wfcheck.check_raw raw in
        if json then print_endline (Wfcheck.to_json ds)
        else if ds = [] then Printf.printf "%s: no diagnostics\n" file
        else print_endline (Wfcheck.to_text ~file ds);
        let failing =
          List.exists
            (fun (d : Wfcheck.diagnostic) ->
              match d.Wfcheck.severity with
              | Wfcheck.Error -> true
              | Wfcheck.Warning -> strict
              | Wfcheck.Info -> false)
            ds
        in
        exit (if failing then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the Wfcheck static diagnostics over a workflow spec.")
    Term.(const run $ file_opt $ json_arg $ strict_arg $ codes_arg)

(* analyze -------------------------------------------------------------- *)

let analyze_cmd =
  let module_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"MODULE" ~doc:"Module to analyze.")
  in
  let run file name =
    let spec = load ~preflight:true file in
    match Wf.Workflow.find_module spec.Wf.Parse.workflow name with
    | None ->
        fail_with (Serve.Request.Unknown_name (Printf.sprintf "no module %s" name))
    | Some m ->
        (* The analysis decides every hidden subset of the module, public
           or private: refuse a width the enumeration cannot take before
           printing anything. *)
        let width = List.length (Wf.Wmodule.attr_names m) in
        if width > Svutil.Subset.max_universe then begin
          let line =
            match
              List.find_opt
                (fun (r : Wf.Parse.raw_module) -> r.Wf.Parse.m_name = name)
                spec.Wf.Parse.raw.Wf.Parse.r_modules
            with
            | Some r -> r.Wf.Parse.m_line
            | None -> 0
          in
          prerr_endline
            (Wfcheck.to_text ~file
               [
                 Wfcheck.diagnostic ~line ~subject:name "W042"
                   (Printf.sprintf
                      "module %s has %d attributes; standalone analysis \
                       enumerates at most %d"
                      name width Svutil.Subset.max_universe);
               ]);
          exit 1
        end;
        let gamma = gamma_of spec name in
        Printf.printf "standalone analysis of %s for Gamma = %d\n" name gamma;
        let minimal = Privacy.Standalone.minimal_hidden_subsets m ~gamma in
        Printf.printf "minimal safe hidden sets: %s\n"
          (if minimal = [] then "(none - the requirement is unachievable)"
           else String.concat " " (List.map (fun h -> "{" ^ String.concat "," h ^ "}") minimal));
        let cost a = List.assoc a spec.Wf.Parse.costs in
        (match Privacy.Standalone.min_cost_hidden m ~gamma ~cost with
        | Some (hidden, c) ->
            Printf.printf "cheapest safe hidden set: {%s} at cost %s\n"
              (String.concat "," hidden) (Rat.to_string c)
        | None -> print_endline "no safe subset exists");
        Format.printf "derived requirement: %a@." Core.Requirement.pp
          (Core.Derive.requirement m ~gamma)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Standalone privacy analysis of one module.")
    Term.(const run $ file_arg $ module_arg)

(* solve ----------------------------------------------------------------- *)

(* Method selection is shared between [solve], [batch] and the daemon
   protocol; the spellings live in Serve.Request ([lp] is the set-LP
   threshold rounding, [alg1] the cardinality-LP randomized rounding). *)
let concrete_methods = Serve.Request.method_names

let method_doc =
  "Solver: $(b,auto) (portfolio), $(b,greedy), $(b,lp) (set-LP threshold \
   rounding), $(b,alg1) (cardinality-LP randomized rounding), $(b,exact) \
   (branch and bound), $(b,brute) (exhaustive), or $(b,all) \
   (greedy + lp + exact)."

let method_arg =
  let methods =
    Arg.enum (("all", `All) :: List.map (fun (n, m) -> (n, `One (n, m))) concrete_methods)
  in
  Arg.(value & opt methods `All
       & info [ "m"; "method" ] ~docv:"METHOD" ~doc:method_doc)

let batch_method_arg =
  let methods = Arg.enum (List.map (fun (n, m) -> (n, (n, m))) concrete_methods) in
  Arg.(value & opt methods ("auto", Core.Engine.Auto)
       & info [ "m"; "method" ] ~docv:"METHOD"
           ~doc:"Solver: auto (portfolio, default), greedy, lp, alg1, exact, or brute.")

let seed_arg =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"N"
           ~doc:"RNG seed for the randomized rounding trials (alg1). Equal \
                 seeds reproduce equal solutions; batch derives one seed per \
                 file from this base.")

let deadline_arg =
  Arg.(value & opt (some finite_float) None
       & info [ "deadline" ] ~docv:"MS"
           ~doc:"Wall-clock budget in milliseconds. A run that hits it \
                 returns the best incumbent found so far, never claiming \
                 optimality.")

let trials_arg =
  Arg.(value & opt int 4
       & info [ "trials" ] ~docv:"N"
           ~doc:"Randomized rounding trials (alg1); the cheapest wins.")

let instance_of = Serve.Request.instance_of

let emit_view_arg =
  Arg.(value & flag & info [ "emit-view" ]
         ~doc:"Also print the published view relation pi_V(R) and the module renaming.")

let node_limit_arg =
  Arg.(value & opt int Lp.Ilp.default_node_limit
       & info [ "node-limit" ] ~docv:"N"
           ~doc:"Branch-and-bound node budget for the exact solver.")

let solve_json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit results as JSON, including branch-and-bound search \
                 statistics for the exact method.")

let metrics_arg =
  let modes = Arg.enum [ ("none", `None); ("json", `Json) ] in
  Arg.(value & opt modes `None
       & info [ "metrics" ] ~docv:"FMT"
           ~doc:"Collect solver-stack work counters (simplex pivots, \
                 branch-and-bound nodes, rounding trials) and phase spans. \
                 $(b,json) emits them as a JSON object per solve; \
                 $(b,none) (default) collects nothing and costs nothing.")

let metrics_of = function
  | `None -> Svutil.Metrics.nop
  | `Json -> Svutil.Metrics.create ()

(* JSON emission is shared with the daemon in Serve.Response; these
   aliases keep the subcommand bodies readable. *)
let json_str = Serve.Response.str
let json_list = Serve.Response.list
let json_assoc = Serve.Response.assoc
let json_engine_result = Serve.Response.engine_result ~timings:true

let stat_true (r : Core.Engine.result) key =
  List.assoc_opt key r.Core.Engine.stats = Some "true"

let request_of inst ~meth ~node_limit ~seed ~deadline_ms ~trials ~metrics =
  Serve.Request.engine_request ~metrics inst
    { Serve.Request.meth; node_limit; seed; deadline_ms; trials }

let explain_route_arg =
  Arg.(value & flag
       & info [ "explain-route" ]
           ~doc:"Report which method the auto portfolio would pick for \
                 this request, and why.")

let solve_cmd =
  let run file meth emit_view node_limit json seed deadline trials
      metrics_mode explain_route =
    let spec = load ~preflight:true file in
    let inst = instance_of spec in
    let fields = ref [] in
    let field k v = fields := (k, v) :: !fields in
    if explain_route then begin
      let req0 =
        request_of inst ~meth:Core.Engine.Auto ~node_limit ~seed
          ~deadline_ms:deadline ~trials ~metrics:Svutil.Metrics.nop
      in
      let m, why = Core.Engine.choose_explain req0 in
      if json then
        field "route"
          (Printf.sprintf {|{"method":%s,"rule":%s}|}
             (json_str (Core.Engine.meth_to_string m))
             (json_str why))
      else
        Printf.printf "route    %s  [%s]\n" (Core.Engine.meth_to_string m) why
    end;
    (* One method through the engine: print the human-readable lines
       (bound, solution, budget notes) unless --json, and always record
       the JSON field under the CLI's name for the method. *)
    let run_method (key, meth) =
      let req =
        request_of inst ~meth ~node_limit ~seed ~deadline_ms:deadline ~trials
          ~metrics:(metrics_of metrics_mode)
      in
      let r = Core.Engine.run req in
      if not json then begin
        (match r.Core.Engine.lower_bound with
        | Some b when not r.Core.Engine.proven_optimal ->
            Format.printf "%-8s %s@." (key ^ "-bound") (Rat.to_string b)
        | _ -> ());
        (match r.Core.Engine.solution with
        | Some s ->
            let label =
              if r.Core.Engine.proven_optimal then "optimal"
              else
                match r.Core.Engine.method_used with
                | Core.Engine.Exact -> "best"
                | m -> Core.Engine.meth_to_string m
            in
            Format.printf "%-8s %a@." label Core.Solution.pp s
        | None -> (
            match List.assoc_opt "refused" r.Core.Engine.stats with
            | Some reason -> Printf.printf "%s: %s\n" key reason
            | None -> Printf.printf "%s: infeasible\n" key));
        if stat_true r "limit_hit" then
          Printf.printf "(node limit %s reached after %s nodes)\n"
            (Option.value ~default:"?" (List.assoc_opt "node_limit" r.Core.Engine.stats))
            (Option.value ~default:"?" (List.assoc_opt "nodes" r.Core.Engine.stats));
        if stat_true r "deadline_hit" then
          print_endline "(deadline reached; result is not proven optimal)";
        if Svutil.Metrics.enabled r.Core.Engine.metrics then
          Printf.printf "metrics %s %s\n" key
            (Svutil.Metrics.to_json r.Core.Engine.metrics)
      end;
      field key (json_engine_result r);
      r.Core.Engine.solution
    in
    let final =
      match meth with
      | `All ->
          ignore (run_method ("greedy", Core.Engine.Greedy));
          ignore (run_method ("lp", Core.Engine.Round_set));
          run_method ("exact", Core.Engine.Exact)
      | `One (key, meth) -> run_method (key, meth)
    in
    if json then
      print_endline
        ("{"
        ^ String.concat ","
            (List.rev_map (fun (k, v) -> json_str k ^ ":" ^ v) !fields)
        ^ "}");
    if emit_view then begin
      match final with
      | None -> print_endline "no view: instance infeasible"
      | Some s ->
          let view = Core.View.materialize spec.Wf.Parse.workflow inst s in
          Format.printf "@.%a@." Core.View.pp view
    end
  in
  Cmd.v (Cmd.info "solve" ~doc:"Solve the workflow Secure-View problem.")
    Term.(const run $ file_arg $ method_arg $ emit_view_arg $ node_limit_arg
          $ solve_json_arg $ seed_arg $ deadline_arg $ trials_arg $ metrics_arg
          $ explain_route_arg)

(* batch ----------------------------------------------------------------- *)

let batch_cmd =
  let files_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"FILES" ~doc:"Workflow description files.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Solve up to N files concurrently (OCaml 5 domains; \
                   sequential fallback on 4.x). The output does not depend \
                   on N.")
  in
  let run files (_, meth) node_limit jobs seed deadline trials metrics_mode =
    (* One JSON line per file; a file that fails to parse, lint, or
       solve yields an "ok":false line instead of aborting the batch.
       Each file gets a seed derived from the base seed and its position
       so the output is identical whatever --jobs is. *)
    let solve_file (idx, file) =
      try
        match Wf.Parse.parse_file file with
        | Error e ->
            ( Printf.sprintf {|{"file":%s,"ok":false,"error":%s}|}
                (json_str file) (json_str e),
              false,
              Svutil.Metrics.nop )
        | Ok spec -> (
            match Wfcheck.errors (Wfcheck.check_spec spec) with
            | _ :: _ as errs ->
                ( Printf.sprintf {|{"file":%s,"ok":false,"error":%s}|}
                    (json_str file)
                    (json_str
                       (Printf.sprintf "fails %d static check(s)"
                          (List.length errs))),
                  false,
                  Svutil.Metrics.nop )
            | [] ->
                let inst = instance_of spec in
                (* Fresh registry per file: parallel batch workers never
                   share a live registry. *)
                let req =
                  request_of inst ~meth ~node_limit ~seed:(seed + idx)
                    ~deadline_ms:deadline ~trials
                    ~metrics:(metrics_of metrics_mode)
                in
                let r = Core.Engine.run req in
                ( Printf.sprintf {|{"file":%s,"ok":true,"result":%s}|}
                    (json_str file) (json_engine_result r),
                  true,
                  r.Core.Engine.metrics ))
      with e ->
        ( Printf.sprintf {|{"file":%s,"ok":false,"error":%s}|} (json_str file)
            (json_str (Printexc.to_string e)),
          false,
          Svutil.Metrics.nop )
    in
    let lines =
      Svutil.Par.map ~jobs solve_file (List.mapi (fun i f -> (i, f)) files)
    in
    List.iter (fun (line, _, _) -> print_endline line) lines;
    (* Run-level summary: the per-file registries merge into one
       aggregate footer line (merging is associative and commutative,
       so the footer is --jobs-independent like the rest). *)
    let merged =
      List.fold_left
        (fun acc (_, _, m) -> Svutil.Metrics.merge acc m)
        Svutil.Metrics.nop lines
    in
    if Svutil.Metrics.enabled merged then
      print_endline (json_assoc [ ("metrics", Svutil.Metrics.to_json merged) ]);
    exit (if List.for_all (fun (_, ok, _) -> ok) lines then 0 else 1)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Solve many workflow files through the engine, one JSON line per \
             file. Files are processed in parallel with --jobs; the output \
             (order and content) does not depend on the job count.")
    Term.(const run $ files_arg $ batch_method_arg $ node_limit_arg
          $ jobs_arg $ seed_arg $ deadline_arg $ trials_arg $ metrics_arg)

(* check ------------------------------------------------------------------ *)

let check_cmd =
  let hide_arg =
    Arg.(value & opt (list string) [] & info [ "hide" ] ~docv:"ATTRS"
           ~doc:"Comma-separated attributes to hide.")
  in
  let priv_arg =
    Arg.(value & opt (list string) [] & info [ "privatize" ] ~docv:"MODULES"
           ~doc:"Comma-separated public modules to privatize.")
  in
  let run file hidden privatized =
    let spec = load ~preflight:true file in
    let w = spec.Wf.Parse.workflow in
    let public = List.map fst spec.Wf.Parse.publics in
    let declared what known names =
      List.iter
        (fun n ->
          if not (List.mem n known) then
            fail_with
              (Serve.Request.Unknown_name (Printf.sprintf "no %s %s" what n)))
        names
    in
    declared "attribute" (Wf.Workflow.attr_names w) hidden;
    declared "public module" public privatized;
    let ok =
      List.for_all
        (fun (m : Wf.Wmodule.t) ->
          List.mem m.Wf.Wmodule.name public
          || Privacy.Standalone.is_safe m
               ~visible:(Svutil.Listx.diff (Wf.Wmodule.attr_names m) hidden)
               ~gamma:(gamma_of spec m.Wf.Wmodule.name))
        (Wf.Workflow.modules w)
      && List.for_all
           (fun p -> List.mem p privatized)
           (Privacy.Wprivacy.exposed_publics w ~public ~hidden)
    in
    let inst = instance_of spec in
    Printf.printf "view is safe (Theorem 4/8 criterion): %b\n" ok;
    Printf.printf "cost: %s\n"
      (Rat.to_string (Core.Instance.cost inst ~hidden ~privatized));
    exit (if ok then 0 else 1)
  in
  Cmd.v (Cmd.info "check" ~doc:"Check that a proposed view is safe, and price it.")
    Term.(const run $ file_arg $ hide_arg $ priv_arg)

(* flow ------------------------------------------------------------------ *)

let flow_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the analysis as a JSON object (closures, lattice \
                   levels, verdicts, bounds, findings).")
  in
  let run file json metrics_mode =
    let spec = load ~preflight:true file in
    let metrics = metrics_of metrics_mode in
    let fl = Analysis.Flow.analyze ~metrics spec in
    if json then print_endline (Analysis.Flow.to_json fl)
    else print_string (Analysis.Flow.to_text fl);
    if Svutil.Metrics.enabled metrics then
      Printf.printf "metrics %s\n" (Svutil.Metrics.to_json metrics)
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:"Static privacy-flow analysis: dependency closures, the \
             visible-flow lattice, sound per-module Gamma bounds, and \
             must-hide / may-expose verdicts with their justifications.")
    Term.(const run $ file_arg $ json_arg $ metrics_arg)

(* delta ----------------------------------------------------------------- *)

let delta_cmd =
  let edits_arg =
    Arg.(required & opt (some string) None
         & info [ "edits" ] ~docv:"SCRIPT"
             ~doc:"Edit script to apply (see Core.Delta.parse_script: one \
                   edit per line — attr/cost/req/rewire/add/drop).")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Also re-solve the edited instance from scratch and check \
                   the incremental optimum matches; exit non-zero on drift.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit parent and incremental results as one JSON object.")
  in
  let run file edits node_limit json verify metrics_mode =
    let spec = load ~preflight:true file in
    let inst = instance_of spec in
    let script =
      match Core.Delta.parse_script (read_all edits) with
      | Ok s -> s
      | Error e ->
          Printf.eprintf "error: %s: %s\n" edits e;
          exit 2
    in
    let metrics = metrics_of metrics_mode in
    let parent =
      Core.Engine.run
        { (Core.Engine.default_request inst) with Core.Engine.node_limit }
    in
    match Core.Delta.resolve ~node_limit ~metrics ~parent script with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 2
    | Ok o ->
        let r = o.Core.Delta.result in
        let reuse_str =
          match o.Core.Delta.reuse with
          | Core.Delta.Noop -> "noop"
          | Core.Delta.Scoped { dirty; total } ->
              Printf.sprintf "scoped %d/%d" dirty total
          | Core.Delta.Full -> "full"
        in
        let verified =
          if not verify then None
          else
            let scratch =
              Core.Engine.run
                {
                  (Core.Engine.default_request o.Core.Delta.edited) with
                  Core.Engine.node_limit;
                }
            in
            let cost (r : Core.Engine.result) =
              Option.map
                (fun (s : Core.Solution.t) -> s.Core.Solution.cost)
                r.Core.Engine.solution
            in
            Some
              (match (cost r, cost scratch) with
              | None, None -> Ok ()
              | Some a, Some b when Rat.equal a b -> Ok ()
              | a, b ->
                  let show = function
                    | Some c -> Rat.to_string c
                    | None -> "infeasible"
                  in
                  Error (show a, show b))
        in
        if json then
          print_endline
            (json_assoc
               ([
                  ("parent", json_engine_result parent);
                  ("delta", json_engine_result r);
                  ("reuse", json_str reuse_str);
                  ("touched", json_list o.Core.Delta.touched);
                  ("dirty", json_list o.Core.Delta.dirty);
                ]
               @
               match verified with
               | None -> []
               | Some (Ok ()) -> [ ("verified", "true") ]
               | Some (Error _) -> [ ("verified", "false") ]))
        else begin
          (match parent.Core.Engine.solution with
          | Some s -> Format.printf "parent   %a@." Core.Solution.pp s
          | None -> print_endline "parent   infeasible");
          Printf.printf "reuse    %s (%d touched, %d dirty)\n" reuse_str
            (List.length o.Core.Delta.touched)
            (List.length o.Core.Delta.dirty);
          (match r.Core.Engine.solution with
          | Some s ->
              Format.printf "%-8s %a@."
                (if r.Core.Engine.proven_optimal then "optimal" else "best")
                Core.Solution.pp s
          | None -> print_endline "edited   infeasible");
          (match verified with
          | None -> ()
          | Some (Ok ()) ->
              print_endline "verify   incremental optimum = from-scratch"
          | Some (Error _) -> ());
          if Svutil.Metrics.enabled metrics then
            Printf.printf "metrics %s\n" (Svutil.Metrics.to_json metrics)
        end;
        match verified with
        | Some (Error (inc, scr)) ->
            Printf.eprintf
              "error: optimum drift: incremental %s, from-scratch %s\n" inc scr;
            exit 1
        | _ -> ()
  in
  Cmd.v
    (Cmd.info "delta"
       ~doc:"Apply an edit script to a solved workflow and re-solve \
             incrementally (Core.Delta): no-op detection by canonical form, \
             then a fresh solve of the edit's dirty set alone when the rest \
             can be kept.")
    Term.(const run $ file_arg $ edits_arg $ node_limit_arg $ json_arg
          $ verify_arg $ metrics_arg)

(* serve ----------------------------------------------------------------- *)

let serve_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve a Unix-domain socket at $(docv) (one connection at a \
                   time) instead of stdin/stdout.")
  in
  let cache_size_arg =
    Arg.(value & opt int 128
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"Capacity of the canonical-form solution cache (LRU \
                   entries).")
  in
  let verify_hits_arg =
    Arg.(value & flag
         & info [ "verify-hits" ]
             ~doc:"Differentially verify every cache hit by re-solving from \
                   scratch; a request whose cached optimum drifts fails with \
                   an internal error. Costs the solve the cache saved — for \
                   tests and CI gates.")
  in
  let run socket cache_size verify_hits node_limit deadline trials seed =
    if cache_size < 1 then
      fail_with (Serve.Request.Usage "cache-size must be at least 1");
    let cfg =
      {
        Serve.Daemon.cache_capacity = cache_size;
        defaults =
          {
            Serve.Request.default_options with
            Serve.Request.node_limit;
            deadline_ms = deadline;
            trials;
            seed;
          };
        verify_hits;
        metrics = Svutil.Metrics.create ();
      }
    in
    match socket with
    | None -> Serve.Daemon.run_stdio cfg
    | Some path -> Serve.Daemon.run_socket cfg path
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived JSON-lines request loop in front of the engine, with \
             a canonical-form solution cache: renamed resubmissions of a \
             solved workflow are served by isomorphism transport instead of \
             a fresh solve. One request object per line on stdin (or a Unix \
             socket with --socket); ops: solve, ping, stats, shutdown. \
             SIGUSR1 dumps stats and metrics to stderr.")
    Term.(const run $ socket_arg $ cache_size_arg $ verify_hits_arg
          $ node_limit_arg $ deadline_arg $ trials_arg $ seed_arg)

(* corpus ---------------------------------------------------------------- *)

let corpus_cmd =
  let corpus_seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Corpus seed; the whole instance set derives from it \
                   deterministically.")
  in
  let smoke_arg =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Small corpus: small/medium sizes only, one replica per \
                   cell — the CI smoke configuration.")
  in
  let list_arg =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"Dump the generated instances as JSON instead of running \
                   the solvers on them.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON document to $(docv) instead of stdout.")
  in
  let no_times_arg =
    Arg.(value & flag
         & info [ "no-times" ]
             ~doc:"Redact the time_ms fields so the row output is \
                   byte-reproducible across runs.")
  in
  let run seed smoke list_only out no_times =
    let recs = Svbench.Corpus.generate ~smoke ~seed () in
    let doc =
      if list_only then Svbench.Corpus.instances_to_json ~seed recs
      else
        Svbench.Corpus.rows_to_json ~times:(not no_times) ~seed
          (Svbench.Corpus.run recs)
    in
    let text = Svutil.Json.to_string doc in
    match out with None -> print_endline text | Some f -> write_all f text
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Generate the seeded scenario corpus (five topology families \
             crossed with size, constraint-form and public-fraction axes) \
             and measure every method on every instance, one \
             JSON row per (instance, method).")
    Term.(const run $ corpus_seed_arg $ smoke_arg $ list_arg $ out_arg
          $ no_times_arg)

(* tradeoff ----------------------------------------------------------- *)

let tradeoff_cmd =
  let module_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"MODULE" ~doc:"Module to analyze.")
  in
  let run file name =
    let spec = load file in
    match Wf.Workflow.find_module spec.Wf.Parse.workflow name with
    | None ->
        fail_with (Serve.Request.Unknown_name (Printf.sprintf "no module %s" name))
    | Some m ->
        let cost a = List.assoc a spec.Wf.Parse.costs in
        let max_budget =
          Rat.sum (List.map cost (Wf.Wmodule.attr_names m))
        in
        Printf.printf "privacy/budget trade-off for %s (max useful budget %s)\n" name
          (Rat.to_string max_budget);
        let table = Svutil.Table.create [ "budget"; "best Gamma"; "witness hidden set" ] in
        let rec sweep b =
          if Rat.leq b max_budget then begin
            let gamma, hidden =
              Privacy.Standalone.max_gamma_under_budget m ~cost ~budget:b
            in
            Svutil.Table.add_row table
              [ Rat.to_string b; string_of_int gamma; "{" ^ String.concat "," hidden ^ "}" ];
            sweep (Rat.add b Rat.one)
          end
        in
        sweep Rat.zero;
        Svutil.Table.print table
  in
  Cmd.v
    (Cmd.info "tradeoff"
       ~doc:"Privacy level attainable per hiding budget (Section 6 extension).")
    Term.(const run $ file_arg $ module_arg)

let setup_logging verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.set_level (Some Logs.Debug) else Logs.set_level (Some Logs.Warning)

let () =
  (* --verbose anywhere on the command line enables solver tracing. *)
  setup_logging (Array.exists (( = ) "--verbose") Sys.argv);
  let argv = Array.of_list (List.filter (( <> ) "--verbose") (Array.to_list Sys.argv)) in
  let doc = "provenance views for module privacy (PODS 2011 reproduction)" in
  (* The exit contract is Serve.Request's 0/1/2/3: a command line that
     fails to parse is malformed input (2, not cmdliner's 124) and an
     escaped exception is an internal error (3, not 125). *)
  exit
    (match
       Cmd.eval_value ~argv
         (Cmd.group (Cmd.info "secure_view_cli" ~doc)
            [
              show_cmd;
              lint_cmd;
              analyze_cmd;
              solve_cmd;
              batch_cmd;
              check_cmd;
              flow_cmd;
              delta_cmd;
              serve_cmd;
              corpus_cmd;
              tradeoff_cmd;
            ])
     with
    | Ok (`Ok () | `Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 3)
