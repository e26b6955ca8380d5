(* Benchmark harness driver.

   dune exec bench/main.exe                 -- all experiment tables + timings
   dune exec bench/main.exe -- e05 e07      -- selected experiments only
   dune exec bench/main.exe -- --no-timings -- tables only
   dune exec bench/main.exe -- --timings    -- bechamel timings only
   dune exec bench/main.exe -- --smoke      -- tiny quota (CI sanity run)
   dune exec bench/main.exe -- --json F     -- also write timings to F
                                               (plus per-kernel metrics)
   dune exec bench/main.exe -- --metrics    -- time the instrumented
                                               kernels with a live
                                               registry (overhead check)
   dune exec bench/main.exe -- --filter R   -- only kernels/experiments
                                               matching regex R (Str syntax)
   dune exec bench/main.exe -- --compare A B -- per-kernel speedups between
                                               two bench-json files *)

open Bechamel
open Toolkit

module L = Wf.Library
module St = Privacy.Standalone
module Rng = Svutil.Rng

(* Naive reference for e13: minimum |OUT_{x,W}| through the
   generate-and-test oracle, re-enumerating the worlds per input exactly
   as the pre-pruning implementation did. *)
let naive_min_out_size w ~public ~visible ~module_name =
  let m =
    match Wf.Workflow.find_module w module_name with
    | Some m -> m
    | None -> invalid_arg ("bench: no module " ^ module_name)
  in
  let r = Wf.Workflow.relation w in
  let schema = Rel.Relation.schema r in
  let inputs =
    Rel.Relation.rows r
    |> List.map
         (Rel.Tuple.project_ordered schema (Wf.Wmodule.input_names m))
    |> List.sort_uniq Rel.Tuple.compare
  in
  List.fold_left
    (fun acc input ->
      min acc
        (List.length
           (Privacy.Worlds_naive.workflow_out_set w ~public ~visible
              ~module_name ~input)))
    max_int inputs

(* The daemon's request front end on inline workflow text: decode the
   JSON line, parse the spec, run the preflight and derive the instance,
   the four calls a solve request makes before canon and the engine.
   The requests are the first 24 members of perfbench's [mixed_churn]
   pool, as the load client sends them. *)
let front_end_kernel () =
  let module T = Perfbench_traffic.Traffic in
  let lines =
    List.init 24 (fun i ->
        T.request_line ~id:i ~cache:true ~lp:false (T.render (T.pool_workflow T.Mixed_churn i)))
  in
  let front_end line =
    match Serve.Request.of_json_line ~defaults:Serve.Request.default_options line with
    | Ok { Serve.Request.op = Serve.Request.Solve { Serve.Request.source = Serve.Request.Inline src; _ }; _ } -> (
        match Wf.Parse.parse_string src with
        | Error e -> failwith ("e27: " ^ e)
        | Ok spec ->
            if Analysis.Wfcheck.check_spec spec <> [] then failwith "e27: preflight error";
            ignore (Serve.Request.instance_of spec))
    | _ -> failwith "e27: request did not decode to an inline solve"
  in
  List.iter front_end lines;
  fun () -> List.iter front_end lines

(* The LP model layer on its own: for every member of perfbench's
   [solve_uncached] pool, build the engine's IP, presolve it, and lay
   the reduced program out for the float pass ([Fsimplex.create]). The
   instances are made outside the timed region. *)
let lp_model_kernel () =
  let module T = Perfbench_traffic.Traffic in
  let members = List.map T.instance (T.pool_workflows T.Solve_uncached) in
  let model inst =
    let problem, _ = Core.Exact.build_ip inst in
    match Lp.Presolve.run problem with
    | Lp.Presolve.Reduced { problem; _ } -> ignore (Lp.Fsimplex.create problem)
    | Lp.Presolve.Infeasible | Lp.Presolve.Solved _ -> ()
  in
  fun () -> List.iter model members

(* One bechamel test per experiment: a small fixed kernel representative
   of the experiment's dominant operation. The _naive twins time the
   generate-and-test oracle on the same kernel, so a single run yields
   the pruned-vs-naive speedup. *)
let timing_tests () =
  let fig1 = L.fig1_m1 in
  let card_inst =
    Svbench.Gen_instances.random_card (Rng.create 42)
      { Svbench.Gen_instances.default_shape with n_modules = 3 }
  in
  let sets_inst =
    Svbench.Gen_instances.random_sets (Rng.create 43)
      { Svbench.Gen_instances.default_shape with n_modules = 3 }
      ~lmax:2
  in
  let sc = Combinat.Set_cover.random (Rng.create 44) ~universe:6 ~n_sets:4 in
  let lc =
    Combinat.Label_cover.random (Rng.create 45) ~left:2 ~right:1 ~labels:2 ~edge_prob:0.7
  in
  let g = Combinat.Vertex_cover.random_cubic (Rng.create 46) ~n:4 in
  (* Two-module boolean chain with four initial assignments: big enough
     that the naive function space (256 * 16 substitutions) dominates,
     small enough for the naive twin to finish in a bench quota. *)
  let chain =
    Wf.Workflow.create_exn
      [
        L.identity ~name:"m1" ~inputs:[ "x0"; "x1" ] ~outputs:[ "u0"; "u1" ];
        L.xor_gate ~name:"m2" ~inputs:[ "u0"; "u1" ] ~output:"y";
      ]
  in
  let chain_visible = [ "x0"; "x1"; "y" ] in
  (* Derivation kernels wider than fig1's 5 attributes: one
     output-heavy and one input-heavy random total boolean module. *)
  let derive_module seed ~n_in ~n_out =
    Wf.Gen.random_module (Rng.create seed) ~name:"m"
      ~inputs:(Rel.Attr.booleans (List.init n_in (Printf.sprintf "x%d")))
      ~outputs:(Rel.Attr.booleans (List.init n_out (Printf.sprintf "y%d")))
  in
  let wide_out = derive_module 48 ~n_in:2 ~n_out:10 in
  let wide_in = derive_module 49 ~n_in:6 ~n_out:3 in
  let tiny_wf =
    Wf.Gen.random_workflow (Rng.create 47)
      { Wf.Gen.default with n_modules = 2; max_inputs = 2; max_outputs = 1 }
  in
  (* A flow-rich instance: set-constraint modules whose options
     overlap on common attributes, so Core.Flow proves In_every_option
     must-hides. *)
  let flow_inst_a =
    Svbench.Gen_instances.random_sets (Rng.create 2)
      { Svbench.Gen_instances.default_shape with n_modules = 5 }
      ~lmax:3
  in
  let card_union =
    Svbench.Gen_instances.disjoint_union
      (List.init 12 (fun i ->
           Svbench.Gen_instances.random_card
             (Rng.create (60 + i))
             { Svbench.Gen_instances.default_shape with n_modules = 3 }))
  in
  let sets_union =
    Svbench.Gen_instances.disjoint_union
      (List.init 12 (fun i ->
           Svbench.Gen_instances.random_sets
             (Rng.create (70 + i))
             { Svbench.Gen_instances.default_shape with n_modules = 3 }
             ~lmax:2))
  in
  let e21_edit =
    let attr = List.hd (List.sort compare (Core.Instance.attrs card_union)) in
    let cost = Rat.add (Core.Instance.attr_cost card_union attr) Rat.one in
    [ Core.Delta.Set_cost { attr; cost } ]
  in
  let e22_edit =
    [
      Core.Delta.Set_requirement
        { m_name = "b0_m1"; req = Core.Requirement.Card [ (1, 0) ] };
    ]
  in
  (* [stage] times an uninstrumented kernel; [stage_m] takes the kernel
     as a function of a metrics registry, so the same closure serves the
     default nop-registry timing, the [--metrics] live-registry timing,
     and the one extra instrumented run that fills the [--json]
     "metrics" object. *)
  let stage name f = (name, f, None) in
  let stage_m name f = (name, (fun () -> f Svutil.Metrics.nop), Some f) in
  (* Gadget ILP kernels go through the unified engine, like the CLI and
     the experiment driver; the engine adds one record allocation on top
     of the branch-and-bound, so timings stay comparable to PR3. *)
  let engine_exact ?(metrics = Svutil.Metrics.nop) inst =
    Core.Engine.run
      {
        (Core.Engine.default_request inst) with
        Core.Engine.meth = Core.Engine.Exact;
        Core.Engine.metrics;
      }
  in
  let lp_x inst =
    match Core.Card_lp.lp_relaxation inst with
    | `Optimal (x, _) -> x
    | `Infeasible -> fun _ -> Rat.zero
  in
  (* Incremental re-solve twins: a disjoint union of independent blocks
     with a single-module edit inside one block. The from-scratch twin
     re-solves the whole union; Core.Delta's scoped tier re-solves only
     the dirty block and stitches the parent's clean side back on. The
     parent solve and the edited instance are prepared outside the
     timed region — the kernels compare re-solve against re-solve. *)
  let engine_auto ?(metrics = Svutil.Metrics.nop) inst =
    Core.Engine.run { (Core.Engine.default_request inst) with Core.Engine.metrics }
  in
  let delta_twins key union edit =
    let parent = engine_auto union in
    let edited =
      match Core.Delta.apply union edit with
      | Ok (e, _) -> e
      | Error msg -> failwith (key ^ ": " ^ msg)
    in
    [
      stage_m (key ^ "_delta_incremental") (fun m ->
          match Core.Delta.resolve ~metrics:m ~parent edit with
          | Ok _ -> ()
          | Error msg -> failwith (key ^ ": " ^ msg));
      stage_m (key ^ "_from_scratch") (fun m ->
          ignore (engine_auto ~metrics:m edited));
    ]
  in
  let card_x = lp_x card_inst in
  (* Pivot-kernel pair: the same gadget LP cold-solved by the dense
     rational tableau and by the sparse hybrid path, isolating the
     revised simplex + certification win from the surrounding engine and
     branch-and-bound machinery (run with --filter simplex). *)
  let card_lp_relaxed =
    Lp.Problem.relax (Core.Card_lp.build card_inst).Core.Card_lp.problem
  in
  (* The certification step alone: the card LP's float optimum, found
     once outside the timed region. *)
  let card_found =
    match
      Lp.Fsimplex.solve (Lp.Fsimplex.create card_lp_relaxed) ~lb:card_lp_relaxed.Lp.Problem.lb
        ~ub:card_lp_relaxed.Lp.Problem.ub
    with
    | Lp.Fsimplex.Optimal _ as o -> o
    | _ -> failwith "simplex_sparse_certify: no optimal float basis"
  in
  [
    stage_m "simplex_dense_exact" (fun m ->
        ignore (Lp.Simplex.Exact.solve ~metrics:m card_lp_relaxed));
    stage_m "simplex_sparse_hybrid" (fun m ->
        ignore (Lp.Simplex.Hybrid.solve ~metrics:m card_lp_relaxed));
    stage_m "simplex_sparse_certify" (fun m ->
        match Lp.Certify.check ~metrics:m card_lp_relaxed card_found with
        | Lp.Certify.Cert_optimal _ -> ()
        | _ -> failwith "simplex_sparse_certify: the float optimum must certify");
    stage "e01_safety_check" (fun () ->
        ignore (St.is_safe fig1 ~visible:[ "a1"; "a3"; "a5" ] ~gamma:4));
    stage_m "e02_worlds_enum" (fun m ->
        ignore
          (Privacy.Worlds.count_standalone_worlds ~metrics:m fig1
             ~visible:[ "a1"; "a3"; "a5" ]));
    stage "e02_worlds_enum_naive" (fun () ->
        ignore
          (Privacy.Worlds_naive.count_standalone_worlds fig1
             ~visible:[ "a1"; "a3"; "a5" ]));
    stage_m "e03_workflow_worlds" (fun m ->
        ignore
          (Privacy.Worlds.workflow_worlds_functions ~metrics:m chain ~public:[]
             ~visible:chain_visible));
    stage "e03_workflow_worlds_naive" (fun () ->
        ignore
          (Privacy.Worlds_naive.workflow_worlds_functions chain ~public:[]
             ~visible:chain_visible));
    stage "e04_greedy_gap" (fun () ->
        ignore (Core.Greedy.solve (Experiments.example5_instance 8)));
    (* "exact" is the exact-result route: since the hybrid overhaul that
       is float basis hunting + certification, not rational pivoting
       (which e05_card_lp_pure_exact still times). *)
    stage_m "e05_card_lp_exact" (fun m ->
        ignore (Core.Card_lp.lp_relaxation ~metrics:m card_inst));
    stage_m "e05_card_lp_pure_exact" (fun m ->
        ignore
          (Core.Card_lp.lp_relaxation ~mode:Lp.Simplex.Exact_mode ~metrics:m
             card_inst));
    stage_m "e05_algorithm1" (fun m ->
        ignore
          (Core.Rounding.algorithm1 ~metrics:m (Rng.create 7) card_inst
             ~x:card_x));
    stage_m "e06_set_lp_round" (fun m ->
        match Core.Set_lp.lp_relaxation ~metrics:m sets_inst with
        | `Optimal (x, _) -> ignore (Core.Rounding.threshold sets_inst ~x)
        | `Infeasible -> ());
    stage "e07_greedy" (fun () -> ignore (Core.Greedy.solve card_inst));
    stage "e08_safecheck_large_domain" (fun () ->
        let m =
          Wf.Gen.random_module (Rng.create 48) ~name:"m"
            ~inputs:[ Rel.Attr.make "x" ~dom:128 ]
            ~outputs:[ Rel.Attr.boolean "y" ]
        in
        ignore (St.is_safe m ~visible:[ "x" ] ~gamma:2));
    stage "e09_min_cost_search" (fun () ->
        ignore
          (St.min_cost_hidden fig1 ~gamma:4 ~cost:(fun _ -> Rat.one)));
    stage_m "e10_setcover_gadget_ilp" (fun m ->
        ignore (engine_exact ~metrics:m (Reductions.Sc_card.of_set_cover sc)));
    stage_m "e11_labelcover_gadget_ilp" (fun m ->
        ignore (engine_exact ~metrics:m (Reductions.Lc_set.of_label_cover lc)));
    stage_m "e12_vertexcover_gadget_ilp" (fun m ->
        ignore (engine_exact ~metrics:m (Reductions.Vc_nosharing.of_vertex_cover g)));
    stage "e13_brute_out_size" (fun () ->
        ignore
          (Privacy.Wprivacy.min_out_size_brute chain ~public:[]
             ~visible:chain_visible ~module_name:"m2"));
    stage "e13_brute_out_size_naive" (fun () ->
        ignore
          (naive_min_out_size chain ~public:[] ~visible:chain_visible
             ~module_name:"m2"));
    stage_m "e14_general_gadget_ilp" (fun m ->
        ignore (engine_exact ~metrics:m (Reductions.Sc_general.of_set_cover sc)));
    stage_m "e15_general_lc_gadget_ilp" (fun m ->
        ignore (engine_exact ~metrics:m (Reductions.Lc_general.of_label_cover lc)));
    stage "e16_compose_check" (fun () ->
        ignore (Privacy.Wprivacy.compose_safe tiny_wf ~gamma:2 ~hidden:[]));
    stage_m "e17_lp_variants" (fun m ->
        ignore
          (Core.Card_lp.lp_relaxation ~variant:Core.Card_lp.No_sum_bound
             ~metrics:m card_inst));
    stage "e18_derive_requirement" (fun () ->
        ignore (Core.Derive.requirement fig1 ~gamma:4));
    stage "e18_derive_2in_10out" (fun () ->
        ignore (Core.Derive.requirement wide_out ~gamma:4));
    stage "e18_derive_6in_3out" (fun () ->
        ignore (Core.Derive.requirement wide_in ~gamma:4));
    (* The static privacy-flow pass itself (lint W050/W051 and the
       [flow] subcommand run it). *)
    stage_m "e19_flow_analysis" (fun m ->
        ignore (Core.Flow.analyze ~metrics:m flow_inst_a));
  ]
  @ delta_twins "e21" card_union e21_edit
  @ delta_twins "e22" sets_union e22_edit
  @
  (* Serve-cache twins: the same 12-block union request cold-missed
     (canonicalize + solve + store, fresh cache each run) versus
     warm-hit under a bijective renaming (canonicalize + form check +
     isomorphism transport + re-closure verify, no solve). The warm
     cache is populated outside the timed region. *)
  let rename_instance suffix inst =
    let r a = a ^ suffix in
    Core.Instance.make
      ~attr_costs:
        (List.map (fun (a, c) -> (r a, c)) (Core.Instance.attr_costs inst))
      ~mods:
        (List.map
           (fun (m : Core.Instance.module_req) ->
             {
               Core.Instance.m_name = m.Core.Instance.m_name ^ suffix;
               inputs = List.map r m.Core.Instance.inputs;
               outputs = List.map r m.Core.Instance.outputs;
               req =
                 (match m.Core.Instance.req with
                 | Core.Requirement.Card _ as c -> c
                 | Core.Requirement.Sets l ->
                     Core.Requirement.Sets
                       (List.map
                          (fun (i, o) -> (List.map r i, List.map r o))
                          l));
             })
           (Core.Instance.mods inst))
      ~publics:
        (List.map
           (fun (p : Core.Instance.public_mod) ->
             {
               Core.Instance.p_name = p.Core.Instance.p_name ^ suffix;
               p_cost = p.Core.Instance.p_cost;
               p_attrs = List.map r p.Core.Instance.p_attrs;
             })
           (Core.Instance.publics inst))
      ()
  in
  let union_request ?(metrics = Svutil.Metrics.nop) inst =
    { (Core.Engine.default_request inst) with Core.Engine.metrics }
  in
  let warm_cache = Serve.Cache.create ~capacity:8 () in
  let warm_result, _ = Serve.Cache.solve warm_cache (union_request card_union) in
  (match warm_result.Core.Engine.solution with
  | Some _ -> ()
  | None -> failwith "e24: warm solve of the card union came back infeasible");
  let card_union_renamed = rename_instance "_r" card_union in
  [
    stage_m "e23_serve_cold_miss" (fun m ->
        let cache = Serve.Cache.create ~metrics:m ~capacity:8 () in
        ignore (Serve.Cache.solve cache (union_request ~metrics:m card_union)));
    stage_m "e24_serve_warm_hit" (fun m ->
        match
          Serve.Cache.solve warm_cache
            (union_request ~metrics:m card_union_renamed)
        with
        | _, Serve.Cache.Hit -> ()
        | _ -> failwith "e24: renamed union request missed the warm cache");
  ]
  @
  (* Canonical labeling: the smoke corpus labelled in turn (the common
     case, mostly settled by refinement alone), and one kernel per
     symmetric fixture, the worst case for individualization-refinement
     (twin splitting and orbit pruning keep each within the leaf
     budget). *)
  let corpus_insts =
    List.map
      (fun (ir : Svbench.Corpus.inst_rec) -> ir.Svbench.Corpus.inst)
      (Svbench.Corpus.generate ~smoke:true ~seed:42 ())
  in
  (stage "e26_canon_pool" (fun () ->
       List.iter (fun inst -> ignore (Core.Canon.labeling inst)) corpus_insts)
  :: List.map
       (fun (name, inst) ->
         stage ("e26_canon_symmetric_" ^ name) (fun () ->
             if Core.Canon.cut (Core.Canon.labeling inst) then
               failwith ("e26: " ^ name ^ " hit the leaf budget")))
       (Svbench.Gen_instances.symmetric_fixtures ()))
  @ [
      stage "e27_front_end" (front_end_kernel ());
      stage "e28_lp_model" (lp_model_kernel ());
    ]

(* Flat { "test": ns_per_run } object; hand-rolled since the estimates
   are plain floats and names are ASCII identifiers. When instrumented
   kernels are present, a trailing "metrics" object maps each kernel to
   its {!Svutil.Metrics} registry (work counts for one run), so BENCH
   files record what the kernels did, not just how long they took.
   [read_bench_json] stops scanning at the "metrics" key. *)
let write_json (path, oc) rows metrics_rows =
  output_string oc "{\n";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "  %S: %s%s\n" name
        (match est with Some v -> Printf.sprintf "%.1f" v | None -> "null")
        (if i = List.length rows - 1 && metrics_rows = [] then "" else ","))
    rows;
  if metrics_rows <> [] then begin
    output_string oc "  \"metrics\": {\n";
    List.iteri
      (fun i (name, json) ->
        Printf.fprintf oc "    %S: %s%s\n" name json
          (if i = List.length metrics_rows - 1 then "" else ","))
      metrics_rows;
    output_string oc "  }\n"
  end;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let run_timings ~smoke ~live ~json ~matches =
  print_endline
    (if live then "\n== Bechamel timings (ns per run, OLS fit; live metrics) =="
     else "\n== Bechamel timings (ns per run, OLS fit) ==");
  let entries =
    timing_tests () |> List.filter (fun (name, _, _) -> matches name)
  in
  (* With --metrics, each instrumented kernel is timed writing into its
     own live registry (reused across iterations, like a long-running
     solve would); the default times the nop registry, so comparing the
     two --json files measures the enabled-metrics overhead. *)
  let tests =
    List.map
      (fun (name, plain, m) ->
        match m with
        | Some f when live ->
            let reg = Svutil.Metrics.create () in
            Test.make ~name (Staged.stage (fun () -> f reg))
        | _ -> Test.make ~name (Staged.stage plain))
      entries
  in
  if tests = [] then begin
    print_endline "(no timing kernel matches the filter)";
    Option.iter (fun out -> write_json out [] []) json
  end
  else begin
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      if smoke then Benchmark.cfg ~limit:10 ~quota:(Time.second 0.02) ~stabilize:false ()
      else Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~stabilize:false ()
    in
    let grouped = Test.make_grouped ~name:"secure-view" ~fmt:"%s/%s" tests in
    let raw = Benchmark.all cfg instances grouped in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let rows =
      Hashtbl.fold
        (fun name res acc ->
          let est =
            match Analyze.OLS.estimates res with Some (v :: _) -> Some v | _ -> None
          in
          (name, est) :: acc)
        results []
      |> List.sort compare
    in
    let table = Svutil.Table.create [ "test"; "ns/run" ] in
    List.iter
      (fun (name, est) ->
        let s = match est with Some v -> Printf.sprintf "%.0f" v | None -> "-" in
        Svutil.Table.add_row table [ name; s ])
      rows;
    Svutil.Table.print table;
    Option.iter
      (fun path ->
        (* One extra instrumented run per kernel, outside the timing
           loop, fills the embedded work-count registries. *)
        let metrics_rows =
          List.filter_map
            (fun (name, _, m) ->
              Option.bind m (fun f ->
                  let reg = Svutil.Metrics.create () in
                  f reg;
                  if Svutil.Metrics.is_empty reg then None
                  else Some (name, Svutil.Metrics.to_json reg)))
            entries
        in
        write_json path rows metrics_rows)
      json
  end

(* {2 Baseline comparison: --compare BASE NEW} *)

(* Reads the flat { "name": ns } objects written by [write_json]; [null]
   estimates are skipped, and scanning stops at the optional trailing
   "metrics" object so embedded counter values are never mistaken for
   kernel timings. *)
let read_bench_json path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "bench --compare: %s\n" msg;
      exit 2
  in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let s =
    match Str.search_forward (Str.regexp_string {|"metrics"|}) s 0 with
    | exception Not_found -> s
    | i -> String.sub s 0 i
  in
  let re = Str.regexp {|"\([^"]+\)"[ \t]*:[ \t]*\([0-9.eE+-]+\|null\)|} in
  let rec go pos acc =
    match Str.search_forward re s pos with
    | exception Not_found -> List.rev acc
    | _ ->
        let name = Str.matched_group 1 s in
        let v = Str.matched_group 2 s in
        let pos = Str.match_end () in
        go pos (match float_of_string_opt v with Some f -> (name, f) :: acc | None -> acc)
  in
  go 0 []

let run_compare base_path new_path =
  let base = read_bench_json base_path in
  let fresh = read_bench_json new_path in
  let t = Svutil.Table.create [ "test"; "base ns"; "new ns"; "speedup"; "flag" ] in
  let regressions = ref [] in
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name fresh with
      | None -> Svutil.Table.add_row t [ name; Printf.sprintf "%.0f" b; "-"; "-"; "missing" ]
      | Some n ->
          let speedup = if n > 0.0 then b /. n else infinity in
          let flag =
            (* 10% relative plus an absolute floor: the OLS fit on
               sub-microsecond kernels jitters by hundreds of ns from
               run to run, which is noise, not a regression. *)
            if n > (b *. 1.1) +. 500.0 then begin
              regressions := name :: !regressions;
              "REGRESSED >10%"
            end
            else if speedup >= 2.0 then "faster"
            else ""
          in
          Svutil.Table.add_row t
            [
              name;
              Printf.sprintf "%.0f" b;
              Printf.sprintf "%.0f" n;
              Printf.sprintf "%.2fx" speedup;
              flag;
            ])
    base;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base) then
        Svutil.Table.add_row t [ name; "-"; "-"; "-"; "new" ])
    fresh;
  Printf.printf "\n== %s vs %s ==\n" base_path new_path;
  Svutil.Table.print t;
  match List.rev !regressions with
  | [] -> print_endline "\nno kernel regressed by more than 10%"
  | rs ->
      Printf.printf "\n%d kernel(s) regressed by more than 10%%:\n" (List.length rs);
      List.iter (fun r -> Printf.printf "  %s\n" r) rs;
      (* Nonzero exit so CI can gate on checked-in baselines. *)
      exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec find_compare = function
    | [] -> None
    | "--compare" :: b :: n :: _ -> Some (b, n)
    | "--compare" :: _ ->
        prerr_endline "usage: --compare BASE.json NEW.json";
        exit 2
    | _ :: rest -> find_compare rest
  in
  match find_compare args with
  | Some (b, n) -> run_compare b n
  | None ->
      (* Extract "--opt value" pairs, then flags. *)
      let rec opt_value name = function
        | [] -> None
        | o :: v :: _ when o = name -> Some v
        | _ :: rest -> opt_value name rest
      in
      let json_path = opt_value "--json" args in
      let filter =
        Option.map
          (fun r ->
            try Str.regexp r
            with _ ->
              Printf.eprintf "bench: bad --filter regex %S\n" r;
              exit 2)
          (opt_value "--filter" args)
      in
      let matches name =
        match filter with
        | None -> true
        | Some re -> ( try ignore (Str.search_forward re name 0); true with Not_found -> false)
      in
      let rec drop_opts = function
        | [] -> []
        | ("--json" | "--filter") :: _ :: rest -> drop_opts rest
        | a :: rest -> a :: drop_opts rest
      in
      let args = drop_opts args in
      let timings_only = List.mem "--timings" args in
      let no_timings = List.mem "--no-timings" args in
      let smoke = List.mem "--smoke" args in
      let live = List.mem "--metrics" args in
      let selected = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
      let timed = (not no_timings) && selected = [] in
      (* Open the --json file up front: an unwritable path fails here,
         not after the whole timing run. *)
      let json =
        match json_path with
        | Some path when timed -> (
            try Some (path, open_out path)
            with Sys_error msg ->
              Printf.eprintf "bench: --json: %s\n" msg;
              exit 2)
        | _ -> None
      in
      if (not timings_only) && not smoke then begin
        print_endline "Provenance Views for Module Privacy - experiment harness";
        print_endline "(paper-vs-measured record: EXPERIMENTS.md)";
        List.iter
          (fun (name, run) ->
            if (selected = [] || List.mem name selected) && matches name then run ())
          Experiments.all
      end;
      if timed then run_timings ~smoke ~live ~json ~matches
