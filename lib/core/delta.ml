(* Incremental re-solve. The soundness story for the scoped tier lives
   in DESIGN.md §13; in short, the Secure-View objective decomposes
   additively over the connected components of the attribute-coupling
   graph (attributes are coupled when they share a module or a public
   module), so an edit only perturbs the components its touched
   attributes reach — the parent's restriction to every other component
   is already optimal there and is stitched back verbatim. *)

module Listx = Svutil.Listx
module Metrics = Svutil.Metrics

type edit =
  | Add_attr of { attr : string; cost : Rat.t }
  | Set_cost of { attr : string; cost : Rat.t }
  | Set_requirement of { m_name : string; req : Requirement.t }
  | Rewire of {
      m_name : string;
      inputs : string list;
      outputs : string list;
      req : Requirement.t option;
    }
  | Add_module of {
      m_name : string;
      inputs : string list;
      outputs : string list;
      req : Requirement.t;
    }
  | Drop_module of { name : string }

type script = edit list

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* Applying a script                                                   *)
(* ------------------------------------------------------------------ *)

(* Attributes a requirement constrains by name: Sets options are
   checked against the global hidden set, independent of the module's
   wiring, so they couple the module to those attributes even when the
   wiring doesn't. *)
let req_attrs = function
  | Requirement.Card _ -> []
  | Requirement.Sets l -> List.concat_map (fun (i, o) -> i @ o) l

(* Every attribute a module's feasibility constraint can observe. *)
let support (m : Instance.module_req) =
  m.Instance.inputs @ m.Instance.outputs @ req_attrs m.Instance.req

let apply (base : Instance.t) (script : script) =
  let rec go costs mods publics touched = function
    | [] -> Ok (costs, mods, publics, touched)
    | e :: rest -> (
        let attr_known a = List.mem_assoc a costs in
        let unknown_attrs l = List.filter (fun a -> not (attr_known a)) l in
        let find_mod name =
          List.find_opt
            (fun (m : Instance.module_req) -> m.Instance.m_name = name)
            mods
        in
        match e with
        | Add_attr { attr; cost } ->
            if attr_known attr then
              err "delta: attribute %s already exists" attr
            else
              go (costs @ [ (attr, cost) ]) mods publics (attr :: touched) rest
        | Set_cost { attr; cost } ->
            if not (attr_known attr) then err "delta: unknown attribute %s" attr
            else
              let costs =
                List.map
                  (fun (a, c) -> if a = attr then (a, cost) else (a, c))
                  costs
              in
              go costs mods publics (attr :: touched) rest
        | Set_requirement { m_name; req } -> (
            match (find_mod m_name, unknown_attrs (req_attrs req)) with
            | None, _ -> err "delta: unknown private module %s" m_name
            | Some _, a :: _ -> err "delta: unknown attribute %s" a
            | Some m, [] ->
                let mods =
                  List.map
                    (fun (m' : Instance.module_req) ->
                      if m'.Instance.m_name = m_name then { m' with req = req }
                      else m')
                    mods
                in
                go costs mods publics
                  (support m @ req_attrs req @ touched)
                  rest)
        | Rewire { m_name; inputs; outputs; req } -> (
            let new_req_attrs =
              match req with Some r -> req_attrs r | None -> []
            in
            match
              (find_mod m_name, unknown_attrs (inputs @ outputs @ new_req_attrs))
            with
            | None, _ -> err "delta: unknown private module %s" m_name
            | Some _, a :: _ -> err "delta: unknown attribute %s" a
            | Some m, [] ->
                let mods =
                  List.map
                    (fun (m' : Instance.module_req) ->
                      if m'.Instance.m_name = m_name then
                        {
                          m' with
                          inputs;
                          outputs;
                          req = Option.value ~default:m'.Instance.req req;
                        }
                      else m')
                    mods
                in
                go costs mods publics
                  (support m @ inputs @ outputs @ new_req_attrs @ touched)
                  rest)
        | Add_module { m_name; inputs; outputs; req } -> (
            let taken =
              find_mod m_name <> None
              || List.exists
                   (fun (p : Instance.public_mod) ->
                     p.Instance.p_name = m_name)
                   publics
            in
            if taken then err "delta: module name %s already in use" m_name
            else
              match unknown_attrs (inputs @ outputs @ req_attrs req) with
              | a :: _ -> err "delta: unknown attribute %s" a
              | [] ->
                  let m =
                    { Instance.m_name; inputs; outputs; req }
                  in
                  go costs (mods @ [ m ]) publics (support m @ touched) rest)
        | Drop_module { name } -> (
            match find_mod name with
            | Some m ->
                let mods =
                  List.filter
                    (fun (m' : Instance.module_req) ->
                      m'.Instance.m_name <> name)
                    mods
                in
                go costs mods publics (support m @ touched) rest
            | None -> (
                match
                  List.find_opt
                    (fun (p : Instance.public_mod) -> p.Instance.p_name = name)
                    publics
                with
                | Some p ->
                    let publics =
                      List.filter
                        (fun (p' : Instance.public_mod) ->
                          p'.Instance.p_name <> name)
                        publics
                    in
                    go costs mods publics (p.Instance.p_attrs @ touched) rest
                | None -> err "delta: unknown module %s" name)))
  in
  match
    go (Instance.attr_costs base) (Instance.mods base) (Instance.publics base) []
      script
  with
  | Error _ as e -> e
  | Ok (attr_costs, mods, publics, touched) -> (
      match Instance.make ~attr_costs ~mods ~publics () with
      | inst -> Ok (inst, List.sort_uniq compare touched)
      | exception Invalid_argument msg -> Error ("delta: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Script parsing                                                      *)
(* ------------------------------------------------------------------ *)

let parse_list s = if s = "-" then [] else String.split_on_char ',' s

let parse_req = function
  | "card" :: pairs when pairs <> [] ->
      let pair tok =
        match String.split_on_char ':' tok with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b -> Ok (a, b)
            | _ -> err "bad cardinality pair %S" tok)
        | _ -> err "bad cardinality pair %S" tok
      in
      List.fold_left
        (fun acc tok ->
          Result.bind acc (fun l -> Result.map (fun p -> p :: l) (pair tok)))
        (Ok []) pairs
      |> Result.map (fun l -> Requirement.Card (List.rev l))
  | "sets" :: opts when opts <> [] ->
      let opt tok =
        match String.split_on_char ':' tok with
        | [ ins; outs ] -> Ok (parse_list ins, parse_list outs)
        | _ -> err "bad set option %S (expected INS:OUTS)" tok
      in
      List.fold_left
        (fun acc tok ->
          Result.bind acc (fun l -> Result.map (fun o -> o :: l) (opt tok)))
        (Ok []) opts
      |> Result.map (fun l -> Requirement.Sets (List.rev l))
  | toks ->
      err "expected 'card' or 'sets' requirement, got %S"
        (String.concat " " toks)

let parse_rat tok =
  match Rat.of_string tok with
  | r -> Ok r
  | exception _ -> err "bad rational %S" tok

let parse_line line =
  let toks =
    String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
    |> List.filter (fun t -> t <> "")
  in
  match toks with
  | [] -> Ok None
  | t :: _ when String.length t > 0 && t.[0] = '#' -> Ok None
  | [ "attr"; name; cost ] ->
      Result.map (fun c -> Some (Add_attr { attr = name; cost = c }))
        (parse_rat cost)
  | [ "cost"; name; cost ] ->
      Result.map (fun c -> Some (Set_cost { attr = name; cost = c }))
        (parse_rat cost)
  | [ "drop"; name ] -> Ok (Some (Drop_module { name }))
  | "req" :: m_name :: rest ->
      Result.map (fun req -> Some (Set_requirement { m_name; req }))
        (parse_req rest)
  | "rewire" :: m_name :: "inputs" :: ins :: "outputs" :: outs :: rest ->
      let inputs = parse_list ins and outputs = parse_list outs in
      let req =
        match rest with
        | [] -> Ok None
        | rest -> Result.map Option.some (parse_req rest)
      in
      Result.map (fun req -> Some (Rewire { m_name; inputs; outputs; req })) req
  | "add" :: m_name :: "inputs" :: ins :: "outputs" :: outs :: rest ->
      Result.map
        (fun req ->
          Some
            (Add_module
               {
                 m_name;
                 inputs = parse_list ins;
                 outputs = parse_list outs;
                 req;
               }))
        (parse_req rest)
  | _ -> err "unrecognized edit %S" line

let parse_script text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | Ok None -> go (n + 1) acc rest
        | Ok (Some e) -> go (n + 1) (e :: acc) rest
        | Error msg -> err "line %d: %s" n msg)
  in
  go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Closures                                                            *)
(* ------------------------------------------------------------------ *)

(* Same single-pass-per-direction algorithm Analysis.Flow used to own,
   generalized to bare (inputs, outputs) pairs so the analysis layer
   can delegate here without the core depending on it. *)
let wiring_closures mods =
  let get tbl a = Option.value ~default:[] (Hashtbl.find_opt tbl a) in
  let up : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (inputs, outputs) ->
      let deps =
        List.fold_left (fun acc i -> Listx.union acc (i :: get up i)) [] inputs
      in
      List.iter (fun o -> Hashtbl.replace up o deps) outputs)
    mods;
  let down : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (inputs, outputs) ->
      let deps =
        List.fold_left
          (fun acc o -> Listx.union acc (o :: get down o))
          [] outputs
      in
      List.iter
        (fun i -> Hashtbl.replace down i (Listx.union deps (get down i)))
        inputs)
    (List.rev mods);
  ( (fun a -> List.sort compare (get up a)),
    fun a -> List.sort compare (get down a) )

let component ~groups ~seeds =
  let dirty : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace dirty a ()) seeds;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun g ->
        if List.exists (Hashtbl.mem dirty) g then
          List.iter
            (fun a ->
              if not (Hashtbl.mem dirty a) then begin
                Hashtbl.replace dirty a ();
                changed := true
              end)
            g)
      groups
  done;
  List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) dirty [])

let coupling_groups (inst : Instance.t) =
  List.map support (Instance.mods inst)
  @ List.map (fun (p : Instance.public_mod) -> p.Instance.p_attrs)
      (Instance.publics inst)

let dirty_closure ~base ~edited ~touched =
  component
    ~groups:(coupling_groups base @ coupling_groups edited)
    ~seeds:touched

(* ------------------------------------------------------------------ *)
(* Resolve                                                             *)
(* ------------------------------------------------------------------ *)

type reuse = Noop | Scoped of { dirty : int; total : int } | Full

type outcome = {
  edited : Instance.t;
  result : Engine.result;
  reuse : reuse;
  touched : string list;
  dirty : string list;
}

(* The restriction of [edited] to the dirty attributes. By closure, a
   module or public either has all its attributes dirty or none. *)
let sub_instance (edited : Instance.t) dirty =
  let keep l = List.exists (fun a -> List.mem a dirty) l in
  Instance.make
    ~attr_costs:
      (List.filter (fun (a, _) -> List.mem a dirty) (Instance.attr_costs edited))
    ~mods:(List.filter (fun m -> keep (support m)) (Instance.mods edited))
    ~publics:
      (List.filter
         (fun (p : Instance.public_mod) -> keep p.Instance.p_attrs)
         (Instance.publics edited))
    ()

let resolve ?(node_limit = Lp.Ilp.default_node_limit) ?(metrics = Metrics.nop)
    ~(parent : Engine.result) script =
  match parent.Engine.state with
  | None -> Error "Delta.resolve: parent result has no solved-state capture"
  | Some pstate ->
      let base = pstate.Engine.solved_inst in
      let phases = ref [] in
      let phase label f =
        let r, ms = Metrics.timed metrics label f in
        phases := (label, ms) :: !phases;
        r
      in
      let finish ?solution ?lower_bound ?(proven_optimal = false) ~stats
          ~method_used ~reuse ~touched ~dirty edited total_ms =
        let result =
          {
            Engine.solution;
            lower_bound;
            proven_optimal;
            ratio = Engine.ratio ~proven_optimal solution lower_bound;
            timings = List.rev !phases @ [ ("total", total_ms) ];
            stats;
            method_used;
            metrics;
            state =
              Some
                {
                  Engine.solved_inst = edited;
                  canon = lazy (Canon.form edited);
                };
          }
        in
        { edited; result; reuse; touched; dirty }
      in
      let body () =
        match phase "apply" (fun () -> apply base script) with
        | Error _ as e -> fun _total_ms -> e
        | Ok (edited, touched) -> (
            (* No-op tier: canonical equality proves equal optima; the
               parent solution must additionally re-close on the edited
               instance at its old cost (edits that merely rename
               symmetric structure keep the optimum but not the
               names). *)
            let reclosed =
              lazy
                (match parent.Engine.solution with
                | None -> Some None
                | Some (s : Solution.t) -> (
                    match Solution.of_hidden edited s.Solution.hidden with
                    | s'
                      when Solution.is_feasible edited s'
                           && Rat.equal s'.Solution.cost s.Solution.cost ->
                        Some (Some s')
                    | _ -> None
                    | exception Invalid_argument _ -> None))
            in
            let noop =
              phase "canon" (fun () ->
                  (* Fingerprint first: unequal fingerprints refute
                     isomorphism in O(n log n), so the common
                     obviously-changed edit never pays for the
                     refinement behind [Canon.form]. *)
                  String.equal (Canon.fingerprint base)
                    (Canon.fingerprint edited)
                  && String.equal
                       (Lazy.force pstate.Engine.canon)
                       (Canon.form edited)
                  && Lazy.force reclosed <> None)
            in
            if noop then begin
              Metrics.tick metrics "delta.noop";
              let solution = Option.join (Lazy.force reclosed) in
              fun total_ms ->
                Ok
                  (finish ?solution ?lower_bound:parent.Engine.lower_bound
                     ~proven_optimal:parent.Engine.proven_optimal
                     ~stats:[ ("delta", "noop") ]
                     ~method_used:parent.Engine.method_used ~reuse:Noop
                     ~touched ~dirty:[] edited total_ms)
            end
            else if
              (* A module with empty support belongs to no coupling
                 component, so the decomposition never looks at it. Its
                 requirement can't observe the hidden set either: it is
                 a constant — trivially satisfied or a proof of
                 infeasibility. Settle the latter here so the scoped
                 tier may ignore support-less modules entirely. *)
              List.exists
                (fun (m : Instance.module_req) ->
                  support m = []
                  && not
                       (Requirement.is_satisfied m.Instance.req ~inputs:[]
                          ~outputs:[] ~hidden:[]))
                (Instance.mods edited)
            then fun total_ms ->
              Ok
                (finish
                   ~stats:[ ("delta", "constant_unsat") ]
                   ~method_used:parent.Engine.method_used ~reuse:Full ~touched
                   ~dirty:[] edited total_ms)
            else
              let edited_attrs = Instance.attrs edited in
              let total = List.length edited_attrs in
              let dirty_all =
                phase "dirty" (fun () ->
                    dirty_closure ~base ~edited ~touched)
              in
              let dirty = Listx.inter dirty_all edited_attrs in
              Metrics.count metrics "delta.dirty_attrs" (List.length dirty);
              let clean = Listx.diff edited_attrs dirty in
              let run_sub inst =
                let req = { (Engine.default_request inst) with node_limit; metrics } in
                phase "subsolve" (fun () -> Engine.run req)
              in
              let scoped_parent =
                if parent.Engine.proven_optimal && clean <> [] then
                  match parent.Engine.solution with
                  | Some s -> Some s
                  | None -> None
                else None
              in
              match scoped_parent with
              | Some ps ->
                  (* Scoped tier: solve the dirty restriction, stitch
                     the parent's clean side back on. *)
                  let sub = sub_instance edited dirty in
                  let clean_hidden =
                    List.filter
                      (fun a -> List.mem a clean)
                      ps.Solution.hidden
                  in
                  let clean_sol = Solution.of_hidden edited clean_hidden in
                  let sub_res = run_sub sub in
                  let reuse =
                    Scoped { dirty = List.length dirty; total }
                  in
                  let stats =
                    [
                      ("delta", "scoped");
                      ("delta_dirty", string_of_int (List.length dirty));
                      ("delta_total", string_of_int total);
                    ]
                    @ sub_res.Engine.stats
                  in
                  fun total_ms ->
                    Ok
                      (match sub_res.Engine.solution with
                      | None ->
                          (* The dirty component set is infeasible, so
                             the whole edited instance is. *)
                          finish ~stats
                            ~method_used:sub_res.Engine.method_used ~reuse
                            ~touched ~dirty edited total_ms
                      | Some (ss : Solution.t) ->
                          let combined =
                            Solution.of_hidden edited
                              (clean_hidden @ ss.Solution.hidden)
                          in
                          assert (Solution.is_feasible edited combined);
                          let proven = sub_res.Engine.proven_optimal in
                          let lower_bound =
                            if proven then Some combined.Solution.cost
                            else
                              Option.map
                                (fun lb ->
                                  Rat.add lb clean_sol.Solution.cost)
                                sub_res.Engine.lower_bound
                          in
                          finish ~solution:combined ?lower_bound
                            ~proven_optimal:proven ~stats
                            ~method_used:sub_res.Engine.method_used ~reuse
                            ~touched ~dirty edited total_ms)
              | None ->
                  (* Full tier: nothing provably reusable piecewise —
                     re-solve outright. *)
                  Metrics.tick metrics "delta.full_fallbacks";
                  let res = run_sub edited in
                  let stats = ("delta", "full") :: res.Engine.stats in
                  fun total_ms ->
                    Ok
                      (finish ?solution:res.Engine.solution
                         ?lower_bound:res.Engine.lower_bound
                         ~proven_optimal:res.Engine.proven_optimal ~stats
                         ~method_used:res.Engine.method_used ~reuse:Full
                         ~touched ~dirty edited total_ms))
      in
      let k, total_ms = Metrics.timed metrics "delta" body in
      k total_ms
