module P = Wf.Parse
module W = Wf.Workflow
module M = Wf.Wmodule
module A = Rel.Attr
module R = Rel.Relation
module Naive = Privacy.Worlds_naive

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type diagnostic = {
  code : string;
  severity : severity;
  line : int;
  subject : string;
  message : string;
  hint : string;
}

(* Stable catalogue: code, severity, one-line meaning, fix hint. The
   checks below look their hint up here so text/docs cannot drift. *)
let code_reference =
  [
    ("W001", Error, "module references an undeclared attribute",
     "declare the attribute with an attr directive before the module");
    ("W002", Error, "attribute is produced by more than one module",
     "every data item needs a unique producer; rename one of the outputs");
    ("W003", Error, "cyclic wiring between modules",
     "break the cycle; workflows must be DAGs (Section 2.3)");
    ("W004", Warning, "module can never execute: no row matches any producible input",
     "add rows for the input values upstream modules actually produce");
    ("W005", Warning, "attribute is declared but used by no module",
     "remove the attr directive or wire the attribute into a module");
    ("W010", Error, "rows violate the functional dependency I -> O",
     "modules are functions (Section 2.1); give each input one output");
    ("W011", Warning, "duplicate row",
     "remove the repeated row directive");
    ("W012", Info, "rows leave the input domain incomplete",
     "partial tables are allowed but executions off the table are dropped");
    ("W013", Error, "row value outside the attribute's domain",
     "values must lie in 0..dom-1; widen the domain or fix the row");
    ("W014", Error, "module has no functionality",
     "give the module an fn directive or at least one row");
    ("W015", Error, "module has both fn and rows",
     "use either a builtin or an explicit table, not both");
    ("W016", Error, "row arity does not match the module's attributes",
     "supply one value per declared input and output");
    ("W017", Error, "builtin misuse",
     "see the fn directive documentation in Wf.Parse");
    ("W020", Error, "requested Gamma exceeds the module's achievable bound",
     "even hiding every attribute caps Gamma at the product of output domains; lower gamma or widen the outputs");
    ("W021", Warning, "private module is an identity wiring",
     "its outputs mirror its inputs, so any view keeping one side visible reveals it; declare it public or hide both sides");
    ("W030", Error, "negative attribute cost",
     "hiding costs must be non-negative");
    ("W031", Error, "gamma override names an unknown module",
     "declare the module or fix the name");
    ("W032", Error, "gamma must be at least 1",
     "a privacy requirement below 1 is vacuous; use gamma >= 2 for privacy");
    ("W033", Error, "attribute domain must be at least 1",
     "use dom >= 2 for attributes that carry information");
    ("W034", Warning, "attribute domain is 1",
     "a one-value attribute carries no information; widen it or drop it");
    ("W035", Error, "negative privatization cost",
     "public-module privatization costs must be non-negative");
    ("W036", Error, "duplicate attribute declaration",
     "each attribute may be declared once");
    ("W037", Error, "duplicate module declaration",
     "each module may be declared once");
    ("W040", Warning, "standalone world enumeration would exceed the guard",
     "the brute-force oracle is exponential in the input domain; rely on the closed-form checks for this module");
    ("W041", Warning, "workflow world enumeration would exceed the guard",
     "the function-family space is too large to enumerate; rely on the compositional Theorem 4/8 checks");
    ("W042", Error, "module has more attributes than hidden-subset enumeration can take: any private module, or the module analyze is asked about",
     "requirement derivation and standalone analysis decide all 2^k hidden subsets of a module; split the module, or declare it public so solving never derives its requirement");
    ("W050", Warning, "attribute carries a hiding cost but is irrelevant to every privacy requirement",
     "flow analysis proves no minimum-cost view ever hides it; set its cost to 0 or drop the attr directive");
    ("W051", Info, "public module is privatized in every feasible solution",
     "an adjacent attribute must be hidden in every safe view, so the privatization cost is unavoidable; budget for it or rewire the module");
  ]

let hint_of code =
  match List.find_opt (fun (c, _, _, _) -> c = code) code_reference with
  | Some (_, _, _, h) -> h
  | None -> ""

let severity_of code =
  match List.find_opt (fun (c, _, _, _) -> c = code) code_reference with
  | Some (_, s, _, _) -> s
  | None -> Error

let diagnostic ?(line = 0) ~subject code message =
  { code; severity = severity_of code; line; subject; message; hint = hint_of code }

let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let compare_diagnostic a b =
  compare (a.line, a.code, a.subject, a.message) (b.line, b.code, b.subject, b.message)

(* ------------------------------------------------------------------ *)
(* The checks                                                          *)
(* ------------------------------------------------------------------ *)

let builtin_names = [ "identity"; "negate"; "constant"; "majority"; "and"; "or"; "xor" ]

(* [elaborate] yields the spec the W05x flow pass analyzes; it is only
   called once the declarations are known to elaborate cleanly.  [None]
   skips that pass, which emits no errors. *)
let check ~(elaborate : (unit -> (P.spec, string) result) option) (raw : P.raw) :
    diagnostic list =
  let diags = ref [] in
  let emit ?line ~subject code fmt =
    Printf.ksprintf
      (fun message -> diags := diagnostic ?line ~subject code message :: !diags)
      fmt
  in
  let seen code = List.exists (fun d -> d.code = code) !diags in
  (* First declaration wins for lookups; later ones are W036/W037. *)
  let attr_tbl : (string, P.raw_attr) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : P.raw_attr) ->
      if Hashtbl.mem attr_tbl a.P.a_name then
        emit ~line:a.P.a_line ~subject:a.P.a_name "W036" "duplicate attribute %s" a.P.a_name
      else Hashtbl.add attr_tbl a.P.a_name a)
    raw.P.r_attrs;
  let mod_names = Hashtbl.create 16 in
  List.iter
    (fun (m : P.raw_module) ->
      if Hashtbl.mem mod_names m.P.m_name then
        emit ~line:m.P.m_line ~subject:m.P.m_name "W037" "duplicate module %s" m.P.m_name
      else Hashtbl.add mod_names m.P.m_name m.P.m_line)
    raw.P.r_modules;

  (* --- declaration sanity (W03x) ---------------------------------- *)
  List.iter
    (fun (a : P.raw_attr) ->
      if Rat.sign a.P.a_cost < 0 then
        emit ~line:a.P.a_line ~subject:a.P.a_name "W030" "attribute %s has negative cost %s"
          a.P.a_name (Rat.to_string a.P.a_cost);
      if a.P.a_dom < 1 then
        emit ~line:a.P.a_line ~subject:a.P.a_name "W033" "attribute %s has domain %d"
          a.P.a_name a.P.a_dom
      else if a.P.a_dom = 1 then
        emit ~line:a.P.a_line ~subject:a.P.a_name "W034"
          "attribute %s has a one-value domain" a.P.a_name)
    raw.P.r_attrs;
  List.iter
    (fun (g : P.raw_gamma) ->
      (match g.P.g_module with
      | Some m when not (Hashtbl.mem mod_names m) ->
          emit ~line:g.P.g_line ~subject:m "W031" "gamma override for unknown module %s" m
      | _ -> ());
      if g.P.g_value < 1 then
        emit ~line:g.P.g_line
          ~subject:(Option.value ~default:"(default)" g.P.g_module)
          "W032" "gamma %d is below 1" g.P.g_value)
    raw.P.r_gammas;
  List.iter
    (fun (m : P.raw_module) ->
      match m.P.m_public with
      | Some c when Rat.sign c < 0 ->
          emit ~line:m.P.m_line ~subject:m.P.m_name "W035"
            "public module %s has negative privatization cost %s" m.P.m_name
            (Rat.to_string c)
      | _ -> ())
    raw.P.r_modules;

  (* --- wiring (W00x) ----------------------------------------------- *)
  List.iter
    (fun (m : P.raw_module) ->
      List.iter
        (fun a ->
          if not (Hashtbl.mem attr_tbl a) then
            emit ~line:m.P.m_line ~subject:a "W001"
              "module %s references undeclared attribute %s" m.P.m_name a)
        (Svutil.Listx.dedup (m.P.m_inputs @ m.P.m_outputs)))
    raw.P.r_modules;
  let producers : (string, string * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (m : P.raw_module) ->
      List.iter
        (fun a ->
          match Hashtbl.find_opt producers a with
          | Some (other, _) ->
              emit ~line:m.P.m_line ~subject:a "W002"
                "attribute %s is produced by both %s and %s" a other m.P.m_name
          | None -> Hashtbl.add producers a (m.P.m_name, m.P.m_line))
        m.P.m_outputs)
    raw.P.r_modules;
  (* Kahn's algorithm over the raw wiring; leftovers form cycles. *)
  let topo_order =
    let mods = Array.of_list raw.P.r_modules in
    let n = Array.length mods in
    let index_of = Hashtbl.create 16 in
    Array.iteri (fun i (m : P.raw_module) -> Hashtbl.replace index_of m.P.m_name i) mods;
    let producer_ix a =
      Option.bind (Hashtbl.find_opt producers a) (fun (name, _) ->
          Hashtbl.find_opt index_of name)
    in
    let indegree = Array.make n 0 and dependents = Array.make n [] in
    Array.iteri
      (fun i (m : P.raw_module) ->
        m.P.m_inputs
        |> List.filter_map producer_ix
        |> Svutil.Listx.dedup
        |> List.iter (fun j ->
               if j <> i then begin
                 indegree.(i) <- indegree.(i) + 1;
                 dependents.(j) <- i :: dependents.(j)
               end))
      mods;
    let queue = Queue.create () and order = ref [] in
    Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indegree;
    while not (Queue.is_empty queue) do
      let i = Queue.take queue in
      order := i :: !order;
      List.iter
        (fun j ->
          indegree.(j) <- indegree.(j) - 1;
          if indegree.(j) = 0 then Queue.add j queue)
        dependents.(i)
    done;
    if List.length !order < n then begin
      let stuck =
        Array.to_list mods
        |> List.filteri (fun i _ -> not (List.mem i !order))
        |> List.map (fun (m : P.raw_module) -> m.P.m_name)
      in
      let line =
        Array.to_list mods
        |> List.filter (fun (m : P.raw_module) -> List.mem m.P.m_name stuck)
        |> List.fold_left (fun acc (m : P.raw_module) -> min acc m.P.m_line) max_int
      in
      emit ~line:(if line = max_int then 0 else line)
        ~subject:(String.concat "," stuck) "W003" "cyclic wiring through %s"
        (String.concat ", " stuck);
      None
    end
    else Some (List.rev_map (fun i -> mods.(i)) !order)
  in
  List.iter
    (fun (a : P.raw_attr) ->
      let used (m : P.raw_module) =
        List.mem a.P.a_name m.P.m_inputs || List.mem a.P.a_name m.P.m_outputs
      in
      if not (List.exists used raw.P.r_modules) then
        emit ~line:a.P.a_line ~subject:a.P.a_name "W005" "attribute %s is never used"
          a.P.a_name)
    raw.P.r_attrs;

  (* --- functionality (W01x) ---------------------------------------- *)
  let dom_of name = Option.map (fun a -> a.P.a_dom) (Hashtbl.find_opt attr_tbl name) in
  let dom_product names =
    List.fold_left
      (fun acc a -> Naive.mul_sat acc (Option.value ~default:1 (dom_of a)))
      1 names
  in
  (* A module's rows are usable for value-level analysis only when the
     declarations around them hold up. *)
  let module_valid = Hashtbl.create 16 in
  List.iter
    (fun (m : P.raw_module) ->
      let valid = ref true in
      let attrs_ok =
        List.for_all
          (fun a -> match dom_of a with Some d -> d >= 1 | None -> false)
          (m.P.m_inputs @ m.P.m_outputs)
      in
      if not attrs_ok then valid := false;
      (match (m.P.m_fn, m.P.m_rows) with
      | None, [] ->
          emit ~line:m.P.m_line ~subject:m.P.m_name "W014" "module %s has no functionality"
            m.P.m_name;
          valid := false
      | Some (_, fn_line), _ :: _ ->
          emit ~line:fn_line ~subject:m.P.m_name "W015" "module %s has both fn and rows"
            m.P.m_name;
          valid := false
      | _ -> ());
      (match m.P.m_fn with
      | None -> ()
      | Some (spec, fn_line) ->
          let bad fmt =
            valid := false;
            emit ~line:fn_line ~subject:m.P.m_name "W017" fmt
          in
          let booleans_ok =
            List.for_all (fun a -> dom_of a = Some 2) (m.P.m_inputs @ m.P.m_outputs)
          in
          (match spec with
          | name :: _ when not (List.mem name builtin_names) ->
              bad "module %s: unknown builtin %s" m.P.m_name name
          | [ "identity" ] | [ "negate" ]
            when List.length m.P.m_inputs <> List.length m.P.m_outputs ->
              bad "module %s: identity/negate need as many outputs as inputs" m.P.m_name
          | "constant" :: vals ->
              if List.exists (fun v -> int_of_string_opt v = None) vals then
                bad "module %s: constant values must be integers" m.P.m_name
              else if List.length vals <> List.length m.P.m_outputs then
                bad "module %s: constant needs one value per output" m.P.m_name
          | [ ("majority" | "and" | "or" | "xor") ]
            when List.length m.P.m_outputs <> 1 ->
              bad "module %s: gate builtins need one output" m.P.m_name
          | _ :: _ :: _ -> bad "module %s: builtin takes no extra arguments" m.P.m_name
          | _ -> ());
          if attrs_ok && not booleans_ok then
            bad "module %s: builtins need boolean attributes" m.P.m_name);
      let n_in = List.length m.P.m_inputs and n_out = List.length m.P.m_outputs in
      let well_formed_rows =
        List.filter
          (fun (r : P.raw_row) ->
            let ok =
              Array.length r.P.r_ins = n_in && Array.length r.P.r_outs = n_out
            in
            if not ok then begin
              if Array.length r.P.r_ins <> n_in then
                emit ~line:r.P.r_line ~subject:m.P.m_name "W016"
                  "row arity mismatch for inputs of %s" m.P.m_name;
              if Array.length r.P.r_outs <> n_out then
                emit ~line:r.P.r_line ~subject:m.P.m_name "W016"
                  "row arity mismatch for outputs of %s" m.P.m_name;
              valid := false
            end;
            ok)
          m.P.m_rows
      in
      (* Out-of-domain values (W013), per well-formed row. *)
      List.iter
        (fun (r : P.raw_row) ->
          let check_side names values =
            List.iteri
              (fun i a ->
                match dom_of a with
                | Some d when d >= 1 ->
                    let v = values.(i) in
                    if v < 0 || v >= d then begin
                      emit ~line:r.P.r_line ~subject:a "W013"
                        "row value %d outside domain 0..%d of %s" v (d - 1) a;
                      valid := false
                    end
                | _ -> ())
              names
          in
          check_side m.P.m_inputs r.P.r_ins;
          check_side m.P.m_outputs r.P.r_outs)
        well_formed_rows;
      (* FD violations (W010) and duplicate rows (W011). *)
      let by_input = Hashtbl.create 16 in
      List.iter
        (fun (r : P.raw_row) ->
          match Hashtbl.find_opt by_input r.P.r_ins with
          | None -> Hashtbl.add by_input r.P.r_ins r
          | Some (first : P.raw_row) ->
              if first.P.r_outs = r.P.r_outs then
                emit ~line:r.P.r_line ~subject:m.P.m_name "W011"
                  "duplicate row for %s (first at line %d)" m.P.m_name first.P.r_line
              else begin
                emit ~line:r.P.r_line ~subject:m.P.m_name "W010"
                  "rows at lines %d and %d give input %s of %s two outputs"
                  first.P.r_line r.P.r_line
                  (String.concat " " (List.map string_of_int (Array.to_list r.P.r_ins)))
                  m.P.m_name;
                valid := false
              end)
        well_formed_rows;
      (* Incomplete input domain (W012), for valid explicit tables. *)
      if !valid && m.P.m_rows <> [] && attrs_ok then begin
        let total = dom_product m.P.m_inputs in
        let distinct = Hashtbl.length by_input in
        if distinct < total then
          emit ~line:m.P.m_line ~subject:m.P.m_name "W012"
            "module %s defines %d of %d input tuples" m.P.m_name distinct total
      end;
      Hashtbl.replace module_valid m.P.m_name !valid)
    raw.P.r_modules;

  let structurally_sound =
    (not (List.exists (fun c -> seen c) [ "W001"; "W002"; "W003"; "W036"; "W037" ]))
    && List.for_all
         (fun (m : P.raw_module) ->
           Option.value ~default:false (Hashtbl.find_opt module_valid m.P.m_name))
         raw.P.r_modules
  in

  (* --- value-level reachability (W004) ------------------------------ *)
  (match topo_order with
  | Some order when structurally_sound ->
      (* Attribute-wise over-approximation of producible values,
         propagated in topological order. *)
      let possible : (string, bool array) Hashtbl.t = Hashtbl.create 16 in
      let values_of a =
        match Hashtbl.find_opt possible a with
        | Some s -> s
        | None ->
            (* Initial input: the full domain. *)
            let d = Option.value ~default:1 (dom_of a) in
            let s = Array.make d true in
            Hashtbl.replace possible a s;
            s
      in
      List.iter
        (fun (m : P.raw_module) ->
          let in_sets = List.map values_of m.P.m_inputs in
          let inputs_live = List.for_all (Array.exists Fun.id) in_sets in
          let out_sets =
            List.map
              (fun a -> Array.make (Option.value ~default:1 (dom_of a)) false)
              m.P.m_outputs
          in
          let fired = ref false in
          (match m.P.m_fn with
          | Some _ ->
              if inputs_live then begin
                fired := true;
                (* Builtins are total; over-approximate with the full
                   output domains. *)
                List.iter (fun s -> Array.fill s 0 (Array.length s) true) out_sets
              end
          | None ->
              List.iter
                (fun (r : P.raw_row) ->
                  let feasible =
                    List.for_all2
                      (fun s i -> s.(r.P.r_ins.(i)))
                      in_sets
                      (List.mapi (fun i _ -> i) m.P.m_inputs)
                  in
                  if feasible then begin
                    fired := true;
                    List.iteri (fun i s -> s.(r.P.r_outs.(i)) <- true) out_sets
                  end)
                m.P.m_rows);
          List.iter2 (fun a s -> Hashtbl.replace possible a s) m.P.m_outputs out_sets;
          if inputs_live && not !fired then
            emit ~line:m.P.m_line ~subject:m.P.m_name "W004"
              "module %s can never execute: no row matches any producible input"
              m.P.m_name)
        order
  | _ -> ());

  (* --- privacy feasibility (W02x) ----------------------------------- *)
  if structurally_sound then begin
    let default_g = P.default_gamma raw in
    let override_of name =
      List.find_opt
        (fun (g : P.raw_gamma) -> g.P.g_module = Some name)
        (List.rev raw.P.r_gammas)
    in
    List.iter
      (fun (m : P.raw_module) ->
        if m.P.m_public = None then begin
          let g, g_line =
            match override_of m.P.m_name with
            | Some o -> (o.P.g_value, o.P.g_line)
            | None -> (default_g, m.P.m_line)
          in
          let bound = dom_product m.P.m_outputs in
          if g > bound then
            emit ~line:g_line ~subject:m.P.m_name "W020"
              "module %s cannot reach Gamma = %d: hiding everything yields at most %d"
              m.P.m_name g bound;
          let is_identity =
            match m.P.m_fn with
            | Some ([ "identity" ], _) -> true
            | Some _ -> false
            | None ->
                m.P.m_rows <> []
                && List.for_all (fun (r : P.raw_row) -> r.P.r_ins = r.P.r_outs)
                     m.P.m_rows
          in
          if is_identity then
            emit ~line:m.P.m_line ~subject:m.P.m_name "W021"
              "private module %s is an identity wiring" m.P.m_name
        end)
      raw.P.r_modules
  end;

  (* --- enumeration blow-up (W04x) ----------------------------------- *)
  if structurally_sound then begin
    let family = ref 1 in
    List.iter
      (fun (m : P.raw_module) ->
        let dom = dom_product m.P.m_inputs and range = dom_product m.P.m_outputs in
        let standalone = Naive.pow_int (range + 1) dom in
        if standalone > Naive.default_max then
          emit ~line:m.P.m_line ~subject:m.P.m_name "W040"
            "standalone enumeration for %s spans ~%s candidate worlds (guard %d)"
            m.P.m_name
            (if standalone = max_int then "2^62+" else string_of_int standalone)
            Naive.default_max;
        let width = List.length (m.P.m_inputs @ m.P.m_outputs) in
        if m.P.m_public = None && width > Svutil.Subset.max_universe then
          emit ~line:m.P.m_line ~subject:m.P.m_name "W042"
            "private module %s has %d attributes; requirement derivation enumerates at most %d"
            m.P.m_name width Svutil.Subset.max_universe;
        if m.P.m_public = None then
          family := Naive.mul_sat !family (Naive.pow_int range dom))
      raw.P.r_modules;
    if !family > Naive.default_max then
      emit ~subject:"workflow" "W041"
        "workflow enumeration spans ~%s function families (guard %d)"
        (if !family = max_int then "2^62+" else string_of_int !family)
        Naive.default_max
  end;

  (* --- privacy flow (W05x) ------------------------------------------ *)
  (* The flow pass needs the elaborated spec (requirement derivation
     enumerates per-module hidden subsets), so it only runs when asked
     for, once the declarations elaborate cleanly and no blow-up guard
     fired. *)
  (match elaborate with
  | Some elaborate
    when structurally_sound && (not (has_errors !diags)) && (not (seen "W040"))
         && not (seen "W041") -> (
    match elaborate () with
    | Error _ -> ()
    | Ok spec ->
        let module_line name =
          match
            List.find_opt (fun (m : P.raw_module) -> m.P.m_name = name)
              raw.P.r_modules
          with
          | Some m -> m.P.m_line
          | None -> 0
        in
        List.iter
          (function
            | Flow.Useless_cost { attr; cost } ->
                let line =
                  match Hashtbl.find_opt attr_tbl attr with
                  | Some a -> a.P.a_line
                  | None -> 0
                in
                emit ~line ~subject:attr "W050"
                  "attribute %s is irrelevant to every privacy requirement yet costs %s"
                  attr (Rat.to_string cost)
            | Flow.Forced_privatization { p_name; p_cost; attr } ->
                emit ~line:(module_line p_name) ~subject:p_name "W051"
                  "public module %s is privatized in every feasible solution (cost %s): attribute %s must always be hidden"
                  p_name (Rat.to_string p_cost) attr)
          (Flow.analyze spec).Flow.findings)
  | _ -> ());

  List.sort compare_diagnostic !diags

let check_raw raw = check ~elaborate:(Some (fun () -> P.spec_of_raw raw)) raw

let check_spec (spec : P.spec) = errors (check ~elaborate:None spec.P.raw)

(* ------------------------------------------------------------------ *)
(* Linting built workflows (no source text)                            *)
(* ------------------------------------------------------------------ *)

let raw_of_workflow ?(publics = []) ?(costs = []) ?(gamma_overrides = []) ~gamma w =
  let schema_attrs =
    Rel.Schema.attrs w.W.schema
    |> List.map (fun a ->
           {
             P.a_name = A.name a;
             a_dom = A.dom a;
             a_cost = Option.value ~default:Rat.one (List.assoc_opt (A.name a) costs);
             a_line = 0;
           })
  in
  let raw_module (m : M.t) =
    let n_in = List.length m.M.inputs in
    let n_out = List.length m.M.outputs in
    let rows =
      R.rows m.M.table
      |> List.map (fun row ->
             { P.r_line = 0; r_ins = Array.sub row 0 n_in; r_outs = Array.sub row n_in n_out })
    in
    {
      P.m_line = 0;
      m_name = m.M.name;
      m_public = List.assoc_opt m.M.name publics;
      m_inputs = M.input_names m;
      m_outputs = M.output_names m;
      m_rows = rows;
      m_fn = None;
    }
  in
  {
    P.r_attrs = schema_attrs;
    r_modules = List.map raw_module (W.modules w);
    r_gammas =
      { P.g_line = 0; g_module = None; g_value = gamma }
      :: List.map
           (fun (m, g) -> { P.g_line = 0; g_module = Some m; g_value = g })
           gamma_overrides;
  }

let check_workflow ?publics ?costs ?gamma_overrides ~gamma w =
  check_raw (raw_of_workflow ?publics ?costs ?gamma_overrides ~gamma w)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_diagnostic ?file fmt d =
  let loc =
    match (file, d.line) with
    | Some f, 0 -> f ^ ": "
    | Some f, n -> Printf.sprintf "%s:%d: " f n
    | None, 0 -> ""
    | None, n -> Printf.sprintf "line %d: " n
  in
  Format.fprintf fmt "%s%s %s: %s (fix: %s)" loc d.code
    (severity_to_string d.severity)
    d.message d.hint

let to_text ?file ds =
  String.concat "\n" (List.map (Format.asprintf "%a" (pp_diagnostic ?file)) ds)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ds =
  let field k v = Printf.sprintf "\"%s\":%s" k v in
  let str s = "\"" ^ json_escape s ^ "\"" in
  let one d =
    "{"
    ^ String.concat ","
        [
          field "code" (str d.code);
          field "severity" (str (severity_to_string d.severity));
          field "line" (string_of_int d.line);
          field "subject" (str d.subject);
          field "message" (str d.message);
          field "hint" (str d.hint);
        ]
    ^ "}"
  in
  "[" ^ String.concat "," (List.map one ds) ^ "]"
