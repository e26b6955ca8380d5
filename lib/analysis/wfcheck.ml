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
    ("W018", Error, "module lists an attribute more than once",
     "name each attribute once per module: twice among the inputs or outputs, or as both an input and an output, leaves the module's table ill-formed");
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

(* What every pass shares: the declarations, their name tables (first
   declaration wins for lookups; later ones are W036/W037) and the
   diagnostics emitted so far. The tables are built on first use:
   [check_spec] reads the elaborated spec's ids instead and never asks
   for them. *)
type names = {
  attr_tbl : (string, P.raw_attr) Hashtbl.t;
  mod_lines : (string, int) Hashtbl.t;
}

type ctx = { raw : P.raw; names : names Lazy.t; mutable diags : diagnostic list }

let names_of (raw : P.raw) =
  let attr_tbl = Hashtbl.create 16 and mod_lines = Hashtbl.create 16 in
  List.iter
    (fun (a : P.raw_attr) ->
      if not (Hashtbl.mem attr_tbl a.P.a_name) then Hashtbl.add attr_tbl a.P.a_name a)
    raw.P.r_attrs;
  List.iter
    (fun (m : P.raw_module) ->
      if not (Hashtbl.mem mod_lines m.P.m_name) then
        Hashtbl.add mod_lines m.P.m_name m.P.m_line)
    raw.P.r_modules;
  { attr_tbl; mod_lines }

let context (raw : P.raw) = { raw; names = lazy (names_of raw); diags = [] }
let attr_tbl c = (Lazy.force c.names).attr_tbl
let mod_lines c = (Lazy.force c.names).mod_lines

let emit c ?line ~subject code fmt =
  Printf.ksprintf
    (fun message -> c.diags <- diagnostic ?line ~subject code message :: c.diags)
    fmt

let seen c code = List.exists (fun d -> d.code = code) c.diags
let dom_of c name = Option.map (fun a -> a.P.a_dom) (Hashtbl.find_opt (attr_tbl c) name)

let dom_product c names =
  List.fold_left
    (fun acc a -> Naive.mul_sat acc (Option.value ~default:1 (dom_of c a)))
    1 names

(* --- duplicate declarations (W036, W037) ----------------------------- *)
let duplicates c =
  let first = Hashtbl.create 16 in
  List.iter
    (fun (a : P.raw_attr) ->
      if Hashtbl.mem first a.P.a_name then
        emit c ~line:a.P.a_line ~subject:a.P.a_name "W036" "duplicate attribute %s" a.P.a_name
      else Hashtbl.add first a.P.a_name ())
    c.raw.P.r_attrs;
  Hashtbl.reset first;
  List.iter
    (fun (m : P.raw_module) ->
      if Hashtbl.mem first m.P.m_name then
        emit c ~line:m.P.m_line ~subject:m.P.m_name "W037" "duplicate module %s" m.P.m_name
      else Hashtbl.add first m.P.m_name ())
    c.raw.P.r_modules

(* --- declaration sanity (W030–W035) ---------------------------------- *)
(* [declared j m]: the [j]-th gamma directive's module [m] was declared. *)
let declarations c ~declared =
  List.iter
    (fun (a : P.raw_attr) ->
      if Rat.sign a.P.a_cost < 0 then
        emit c ~line:a.P.a_line ~subject:a.P.a_name "W030" "attribute %s has negative cost %s"
          a.P.a_name (Rat.to_string a.P.a_cost);
      if a.P.a_dom < 1 then
        emit c ~line:a.P.a_line ~subject:a.P.a_name "W033" "attribute %s has domain %d"
          a.P.a_name a.P.a_dom
      else if a.P.a_dom = 1 then
        emit c ~line:a.P.a_line ~subject:a.P.a_name "W034"
          "attribute %s has a one-value domain" a.P.a_name)
    c.raw.P.r_attrs;
  List.iteri
    (fun j (g : P.raw_gamma) ->
      (match g.P.g_module with
      | Some m when not (declared j m) ->
          emit c ~line:g.P.g_line ~subject:m "W031" "gamma override for unknown module %s" m
      | _ -> ());
      if g.P.g_value < 1 then
        emit c ~line:g.P.g_line
          ~subject:(Option.value ~default:"(default)" g.P.g_module)
          "W032" "gamma %d is below 1" g.P.g_value)
    c.raw.P.r_gammas;
  List.iter
    (fun (m : P.raw_module) ->
      match m.P.m_public with
      | Some cost when Rat.sign cost < 0 ->
          emit c ~line:m.P.m_line ~subject:m.P.m_name "W035"
            "public module %s has negative privatization cost %s" m.P.m_name
            (Rat.to_string cost)
      | _ -> ())
    c.raw.P.r_modules

(* --- wiring (W001–W003) ---------------------------------------------- *)
(* Returns the modules in topological order, or [None] on a cycle. *)
let wiring c =
  let raw = c.raw in
  List.iter
    (fun (m : P.raw_module) ->
      List.iter
        (fun a ->
          if not (Hashtbl.mem (attr_tbl c) a) then
            emit c ~line:m.P.m_line ~subject:a "W001"
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
              emit c ~line:m.P.m_line ~subject:a "W002"
                "attribute %s is produced by both %s and %s" a other m.P.m_name
          | None -> Hashtbl.add producers a (m.P.m_name, m.P.m_line))
        m.P.m_outputs)
    raw.P.r_modules;
  (* Kahn's algorithm over the raw wiring; leftovers form cycles. *)
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
    emit c
      ~line:(if line = max_int then 0 else line)
      ~subject:(String.concat "," stuck) "W003" "cyclic wiring through %s"
      (String.concat ", " stuck);
    None
  end
  else Some (List.rev_map (fun i -> mods.(i)) !order)

(* --- unused attributes (W005) ---------------------------------------- *)
let unused_attrs c =
  let used = Hashtbl.create 16 in
  List.iter
    (fun (m : P.raw_module) ->
      List.iter (fun a -> Hashtbl.replace used a ()) m.P.m_inputs;
      List.iter (fun a -> Hashtbl.replace used a ()) m.P.m_outputs)
    c.raw.P.r_modules;
  List.iter
    (fun (a : P.raw_attr) ->
      if not (Hashtbl.mem used a.P.a_name) then
        emit c ~line:a.P.a_line ~subject:a.P.a_name "W005" "attribute %s is never used"
          a.P.a_name)
    c.raw.P.r_attrs

(* --- functionality (W010–W018) --------------------------------------- *)
(* Returns whether every module's rows are usable for value-level
   analysis: the declarations around them hold up. *)
let functionality c =
  let dom_of = dom_of c in
  List.fold_left
    (fun all_valid (m : P.raw_module) ->
      let valid = ref true in
      let attrs_ok =
        List.for_all
          (fun a -> match dom_of a with Some d -> d >= 1 | None -> false)
          (m.P.m_inputs @ m.P.m_outputs)
      in
      if not attrs_ok then valid := false;
      (* An attribute named twice (W018), reported once per name. *)
      let rec repeats seen reported = function
        | [] -> ()
        | a :: rest ->
            if List.mem a seen && not (List.mem a reported) then begin
              emit c ~line:m.P.m_line ~subject:m.P.m_name "W018"
                "module %s lists attribute %s more than once" m.P.m_name a;
              valid := false;
              repeats seen (a :: reported) rest
            end
            else repeats (a :: seen) reported rest
      in
      repeats [] [] (m.P.m_inputs @ m.P.m_outputs);
      (match (m.P.m_fn, m.P.m_rows) with
      | None, [] ->
          emit c ~line:m.P.m_line ~subject:m.P.m_name "W014" "module %s has no functionality"
            m.P.m_name;
          valid := false
      | Some (_, fn_line), _ :: _ ->
          emit c ~line:fn_line ~subject:m.P.m_name "W015" "module %s has both fn and rows"
            m.P.m_name;
          valid := false
      | _ -> ());
      (match m.P.m_fn with
      | None -> ()
      | Some (spec, fn_line) ->
          let bad fmt =
            valid := false;
            emit c ~line:fn_line ~subject:m.P.m_name "W017" fmt
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
                emit c ~line:r.P.r_line ~subject:m.P.m_name "W016"
                  "row arity mismatch for inputs of %s" m.P.m_name;
              if Array.length r.P.r_outs <> n_out then
                emit c ~line:r.P.r_line ~subject:m.P.m_name "W016"
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
                      emit c ~line:r.P.r_line ~subject:a "W013"
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
                emit c ~line:r.P.r_line ~subject:m.P.m_name "W011"
                  "duplicate row for %s (first at line %d)" m.P.m_name first.P.r_line
              else begin
                emit c ~line:r.P.r_line ~subject:m.P.m_name "W010"
                  "rows at lines %d and %d give input %s of %s two outputs"
                  first.P.r_line r.P.r_line
                  (String.concat " " (List.map string_of_int (Array.to_list r.P.r_ins)))
                  m.P.m_name;
                valid := false
              end)
        well_formed_rows;
      (* Incomplete input domain (W012), for valid explicit tables. *)
      if !valid && m.P.m_rows <> [] && attrs_ok then begin
        let total = dom_product c m.P.m_inputs in
        let distinct = Hashtbl.length by_input in
        if distinct < total then
          emit c ~line:m.P.m_line ~subject:m.P.m_name "W012"
            "module %s defines %d of %d input tuples" m.P.m_name distinct total
      end;
      all_valid && !valid)
    true c.raw.P.r_modules

(* --- value-level reachability (W004) --------------------------------- *)
(* Attribute-wise over-approximation of producible values, propagated
   in topological order. *)
let reachability c order =
  let possible : (string, bool array) Hashtbl.t = Hashtbl.create 16 in
  let dom a = Option.value ~default:1 (dom_of c a) in
  let values_of a =
    match Hashtbl.find_opt possible a with
    | Some s -> s
    | None ->
        (* Initial input: the full domain. *)
        let s = Array.make (dom a) true in
        Hashtbl.replace possible a s;
        s
  in
  List.iter
    (fun (m : P.raw_module) ->
      let in_sets = List.map values_of m.P.m_inputs in
      let inputs_live = List.for_all (Array.exists Fun.id) in_sets in
      let out_sets = List.map (fun a -> Array.make (dom a) false) m.P.m_outputs in
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
        emit c ~line:m.P.m_line ~subject:m.P.m_name "W004"
          "module %s can never execute: no row matches any producible input" m.P.m_name)
    order

(* --- privacy feasibility (W020) -------------------------------------- *)
let unreachable_gamma c ~line name g bound =
  emit c ~line ~subject:name "W020"
    "module %s cannot reach Gamma = %d: hiding everything yields at most %d" name g bound

let gamma_bounds c =
  let default_g = P.default_gamma c.raw in
  (* The last override of each module, with its line. *)
  let overrides = Hashtbl.create 16 in
  List.iter
    (fun (g : P.raw_gamma) ->
      Option.iter (fun m -> Hashtbl.replace overrides m (g.P.g_value, g.P.g_line)) g.P.g_module)
    c.raw.P.r_gammas;
  List.iter
    (fun (m : P.raw_module) ->
      if m.P.m_public = None then begin
        let g, g_line =
          Option.value ~default:(default_g, m.P.m_line) (Hashtbl.find_opt overrides m.P.m_name)
        in
        let bound = dom_product c m.P.m_outputs in
        if g > bound then unreachable_gamma c ~line:g_line m.P.m_name g bound
      end)
    c.raw.P.r_modules

(* The same check on an elaborated spec, which holds every private
   module's gamma, the line that set it and its output attributes. *)
let spec_gamma_bounds c (spec : P.spec) =
  let modules = spec.P.workflow.W.modules in
  let public = Array.make (Array.length modules) false in
  Array.iter (fun (k, _) -> public.(k) <- true) spec.P.public_mods;
  Array.iteri
    (fun k (m : M.t) ->
      if not public.(k) then begin
        let g = spec.P.mod_gamma.(k) in
        let bound = List.fold_left (fun acc a -> Naive.mul_sat acc (A.dom a)) 1 m.M.outputs in
        if g > bound then unreachable_gamma c ~line:spec.P.gamma_line.(k) m.M.name g bound
      end)
    modules

(* --- identity wirings (W021) ----------------------------------------- *)
let identity_wirings c =
  List.iter
    (fun (m : P.raw_module) ->
      let is_identity () =
        match m.P.m_fn with
        | Some ([ "identity" ], _) -> true
        | Some _ -> false
        | None ->
            m.P.m_rows <> []
            && List.for_all (fun (r : P.raw_row) -> r.P.r_ins = r.P.r_outs) m.P.m_rows
      in
      if m.P.m_public = None && is_identity () then
        emit c ~line:m.P.m_line ~subject:m.P.m_name "W021"
          "private module %s is an identity wiring" m.P.m_name)
    c.raw.P.r_modules

(* --- enumeration blow-up (W040, W041) -------------------------------- *)
let enumeration c =
  let family = ref 1 in
  List.iter
    (fun (m : P.raw_module) ->
      let dom = dom_product c m.P.m_inputs and range = dom_product c m.P.m_outputs in
      let standalone = Naive.pow_int (range + 1) dom in
      if standalone > Naive.default_max then
        emit c ~line:m.P.m_line ~subject:m.P.m_name "W040"
          "standalone enumeration for %s spans ~%s candidate worlds (guard %d)" m.P.m_name
          (if standalone = max_int then "2^62+" else string_of_int standalone)
          Naive.default_max;
      if m.P.m_public = None then family := Naive.mul_sat !family (Naive.pow_int range dom))
    c.raw.P.r_modules;
  if !family > Naive.default_max then
    emit c ~subject:"workflow" "W041"
      "workflow enumeration spans ~%s function families (guard %d)"
      (if !family = max_int then "2^62+" else string_of_int !family)
      Naive.default_max

(* --- derivation width (W042) ----------------------------------------- *)
let derivation_width c =
  List.iter
    (fun (m : P.raw_module) ->
      let width = List.length m.P.m_inputs + List.length m.P.m_outputs in
      if m.P.m_public = None && width > Svutil.Subset.max_universe then
        emit c ~line:m.P.m_line ~subject:m.P.m_name "W042"
          "private module %s has %d attributes; requirement derivation enumerates at most %d"
          m.P.m_name width Svutil.Subset.max_universe)
    c.raw.P.r_modules

(* --- privacy flow (W050, W051) --------------------------------------- *)
(* Needs the elaborated spec: requirement derivation enumerates
   per-module hidden subsets. *)
let flow c spec =
  List.iter
    (function
      | Flow.Useless_cost { attr; cost } ->
          let line =
            match Hashtbl.find_opt (attr_tbl c) attr with Some a -> a.P.a_line | None -> 0
          in
          emit c ~line ~subject:attr "W050"
            "attribute %s is irrelevant to every privacy requirement yet costs %s" attr
            (Rat.to_string cost)
      | Flow.Forced_privatization { p_name; p_cost; attr } ->
          let line = Option.value ~default:0 (Hashtbl.find_opt (mod_lines c) p_name) in
          emit c ~line ~subject:p_name "W051"
            "public module %s is privatized in every feasible solution (cost %s): attribute %s must always be hidden"
            p_name (Rat.to_string p_cost) attr)
    (Flow.analyze spec).Flow.findings

let sorted c = List.sort compare_diagnostic c.diags

(* Value-level passes only run once the spec is structurally sound, so
   they never see malformed tables; the flow pass additionally needs a
   spec that elaborates with no errors and no blow-up guard. *)
let check_raw raw =
  let c = context raw in
  duplicates c;
  declarations c ~declared:(fun _ m -> Hashtbl.mem (mod_lines c) m);
  let order = wiring c in
  unused_attrs c;
  let rows_ok = functionality c in
  let sound =
    rows_ok && not (List.exists (seen c) [ "W001"; "W002"; "W003"; "W036"; "W037" ])
  in
  if sound then begin
    Option.iter (reachability c) order;
    gamma_bounds c;
    identity_wirings c;
    enumeration c;
    derivation_width c;
    if not (has_errors c.diags || seen c "W040" || seen c "W041") then
      match P.spec_of_raw raw with Ok spec -> flow c spec | Error _ -> ()
  end;
  sorted c

(* [spec_of_raw] has already rejected every duplicate (W036, W037),
   undeclared attribute (W001), second producer (W002), cycle (W003)
   and malformed module (W010, W013–W018), so the declarations are
   sound; of the passes above only these can still emit an Error. They
   read what elaboration resolved (which override names a declared
   module, each module's gamma and its line, its output domains), so no
   name is hashed. *)
let check_spec (spec : P.spec) =
  let c = context spec.P.raw in
  declarations c ~declared:(fun j _ -> spec.P.gamma_mod.(j) >= 0);
  spec_gamma_bounds c spec;
  derivation_width c;
  errors (sorted c)

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
