(* Static privacy-flow verdicts over a Secure-View instance.

   Everything here is decided from the requirement lists alone — no
   possible-world enumeration, no LP. The two verdict kinds are chosen
   because each comes with a short proof that the IP optimum is
   preserved when the corresponding variable is fixed (see the
   justification constructors and DESIGN.md section 12):

   - [Must_hide a]: every feasible view hides [a], so fixing x_a = 1
     removes no feasible point at all.
   - [May_expose a]: no requirement ever references [a], so any
     feasible solution can drop [a] from its hidden set without losing
     feasibility, and hiding costs are non-negative — fixing x_a = 0
     keeps at least one optimal point.

   A module with no satisfiable option poisons the whole instance
   (nothing is feasible), so in that case [fixings] reports nothing and
   the infeasible module is named instead. *)

module Listx = Svutil.Listx

type side = Inputs | Outputs

type justification =
  | In_every_option of { m_name : string; options : int }
      (** set-constraint module: the attribute occurs in each of the
          [options] hidden-set options, so any satisfying choice hides it *)
  | Forced_card of { m_name : string; side : side; pairs : int }
      (** cardinality module: each of the [pairs] satisfiable pairs
          demands the full input (resp. output) side hidden *)
  | Unreferenced
      (** no requirement of any module mentions the attribute's side
          with a positive count / a set option containing it *)

type kind = Must_hide | May_expose

type verdict = { attr : string; kind : kind; why : justification }

type t = {
  verdicts : verdict list;
  undecided : string list;
  infeasible_module : string option;
  lower_cost : Rat.t;
  upper_cost : Rat.t option;
}

let side_to_string = function Inputs -> "inputs" | Outputs -> "outputs"

let justification_to_string = function
  | In_every_option { m_name; options } ->
      Printf.sprintf "appears in every one of %s's %d hidden-set options" m_name
        options
  | Forced_card { m_name; side; pairs } ->
      Printf.sprintf "every satisfiable pair of %s (%d of them) hides all %s"
        m_name pairs (side_to_string side)
  | Unreferenced -> "referenced by no privacy requirement"

let kind_to_string = function
  | Must_hide -> "must-hide"
  | May_expose -> "may-expose"

(* Pairs a module can actually satisfy: alpha (beta) bounded by the
   input (output) arity. Unsatisfiable pairs are dead weight — the IP
   already forces their selector to 0 — so every argument below only
   quantifies over the satisfiable ones. *)
let satisfiable_pairs (m : Instance.pmod) pairs =
  let ni = Array.length m.Instance.ins and no = Array.length m.Instance.outs in
  List.filter (fun (a, b) -> a <= ni && b <= no) pairs

let has_option (m : Instance.pmod) =
  match m.Instance.ireq with
  | Instance.Card pairs -> satisfiable_pairs m pairs <> []
  | Instance.Sets options -> options <> [||]

(* Attributes some requirement can ask to hide: inputs of a module with
   a satisfiable alpha > 0 pair, outputs with a beta > 0 pair, and
   every attribute occurring in a set option. Hiding all of them
   satisfies every module that has a satisfiable option at all (each
   satisfiable pair's positive side is then fully hidden), which is
   what makes [upper_cost] sound. *)
let referenced (inst : Instance.t) =
  let refd = Array.make (Instance.n_attrs inst) false in
  let mark = Array.iter (fun a -> refd.(a) <- true) in
  Array.iter
    (fun (m : Instance.pmod) ->
      match m.Instance.ireq with
      | Instance.Card pairs ->
          let sat = satisfiable_pairs m pairs in
          if List.exists (fun (a, _) -> a > 0) sat then mark m.Instance.ins;
          if List.exists (fun (_, b) -> b > 0) sat then mark m.Instance.outs
      | Instance.Sets options ->
          Array.iter
            (fun (i, o) ->
              mark i;
              mark o)
            options)
    inst.Instance.pmods;
  refd

(* attr id -> justification for the must-hide set; first module wins. *)
let must_hide_table (inst : Instance.t) =
  let n = Instance.n_attrs inst in
  let why = Array.make n None in
  let claim a j = if why.(a) = None then why.(a) <- Some j in
  (* Options holding each attribute, counted once per option: [seen]
     stamps the last option that counted it, and a stamp from an
     earlier module resets the count. *)
  let count = Array.make n 0 and seen = Array.make n (-1) in
  let stamp = ref 0 in
  Array.iter
    (fun (m : Instance.pmod) ->
      match m.Instance.ireq with
      | Instance.Sets [||] -> ()
      | Instance.Sets options ->
          let base = !stamp and k = Array.length options in
          Array.iteri
            (fun j (i, o) ->
              let touch a =
                if seen.(a) <> base + j then begin
                  if seen.(a) < base then count.(a) <- 0;
                  seen.(a) <- base + j;
                  count.(a) <- count.(a) + 1
                end
              in
              Array.iter touch i;
              Array.iter touch o)
            options;
          stamp := base + k;
          let everywhere a =
            if count.(a) = k then
              claim a (In_every_option { m_name = m.Instance.mname; options = k })
          in
          let i, o = options.(0) in
          Array.iter everywhere i;
          Array.iter everywhere o
      | Instance.Card pairs ->
          let sat = satisfiable_pairs m pairs in
          if sat <> [] then begin
            let ni = Array.length m.Instance.ins and no = Array.length m.Instance.outs in
            let forced side attrs =
              Array.iter
                (fun a ->
                  claim a
                    (Forced_card
                       { m_name = m.Instance.mname; side; pairs = List.length sat }))
                attrs
            in
            if ni > 0 && List.for_all (fun (a, _) -> a = ni) sat then
              forced Inputs m.Instance.ins;
            if no > 0 && List.for_all (fun (_, b) -> b = no) sat then
              forced Outputs m.Instance.outs
          end)
    inst.Instance.pmods;
  why

let analyze ?(metrics = Svutil.Metrics.nop) (inst : Instance.t) =
  let infeasible_module =
    Array.find_opt (fun m -> not (has_option m)) inst.Instance.pmods
    |> Option.map (fun (m : Instance.pmod) -> m.Instance.mname)
  in
  let refd = referenced inst in
  let must = must_hide_table inst in
  let names = inst.Instance.names in
  let verdicts = ref [] and undecided = ref [] in
  for a = Instance.n_attrs inst - 1 downto 0 do
    let attr = names.(a) in
    match must.(a) with
    | Some why -> verdicts := { attr; kind = Must_hide; why } :: !verdicts
    | None ->
        if refd.(a) then undecided := attr :: !undecided
        else verdicts := { attr; kind = May_expose; why = Unreferenced } :: !verdicts
  done;
  let verdicts = !verdicts and undecided = !undecided in
  let hidden = Array.map Option.is_some must in
  let n_hidden = Array.fold_left (fun n h -> if h then n + 1 else n) 0 hidden in
  (* Every feasible view hides a superset of [hidden] and privatizes a
     superset of the publics [hidden] already exposes; costs are
     non-negative and additive, so this prices a lower bound. *)
  let lower_cost = Instance.mask_cost inst hidden in
  let upper_cost =
    match infeasible_module with
    | Some _ -> None
    | None -> Some (Instance.mask_cost inst refd)
  in
  Svutil.Metrics.count metrics "flow.must_hide" n_hidden;
  Svutil.Metrics.count metrics "flow.may_expose" (List.length verdicts - n_hidden);
  Svutil.Metrics.count metrics "flow.undecided" (List.length undecided);
  if infeasible_module <> None then Svutil.Metrics.tick metrics "flow.infeasible";
  { verdicts; undecided; infeasible_module; lower_cost; upper_cost }

let must_hide t =
  List.filter_map
    (fun v -> if v.kind = Must_hide then Some v.attr else None)
    t.verdicts

let may_expose t =
  List.filter_map
    (fun v -> if v.kind = May_expose then Some v.attr else None)
    t.verdicts

let fixings t =
  match t.infeasible_module with
  | Some _ -> []
  | None ->
      List.map
        (fun v ->
          (v.attr, match v.kind with Must_hide -> Rat.one | May_expose -> Rat.zero))
        t.verdicts

(* ------------------------------------------------------------------ *)
(* Independent re-validation of a reported analysis                    *)
(* ------------------------------------------------------------------ *)

let check (inst : Instance.t) t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let find_mod name =
    Array.find_opt (fun (m : Instance.pmod) -> m.Instance.mname = name) inst.Instance.pmods
  in
  let refd = referenced inst in
  let has attr ids =
    match Instance.find inst attr with Some a -> Array.mem a ids | None -> false
  in
  let check_verdict v =
    match (v.kind, v.why) with
    | May_expose, Unreferenced -> (
        match Instance.find inst v.attr with
        | Some a when refd.(a) -> fail "may-expose %s is referenced by some requirement" v.attr
        | _ -> Ok ())
    | May_expose, _ -> fail "may-expose %s carries a must-hide justification" v.attr
    | Must_hide, Unreferenced ->
        fail "must-hide %s justified as unreferenced" v.attr
    | Must_hide, In_every_option { m_name; options } -> (
        match find_mod m_name with
        | None -> fail "justification for %s names unknown module %s" v.attr m_name
        | Some m -> (
            match m.Instance.ireq with
            | Instance.Card _ ->
                fail "module %s has a cardinality requirement, not options" m_name
            | Instance.Sets opts ->
                if opts = [||] then fail "module %s has no options" m_name
                else if Array.length opts <> options then
                  fail "module %s has %d options, justification says %d" m_name
                    (Array.length opts) options
                else if Array.for_all (fun (i, o) -> has v.attr i || has v.attr o) opts
                then Ok ()
                else fail "%s misses some option of %s" v.attr m_name))
    | Must_hide, Forced_card { m_name; side; pairs } -> (
        match find_mod m_name with
        | None -> fail "justification for %s names unknown module %s" v.attr m_name
        | Some m -> (
            match m.Instance.ireq with
            | Instance.Sets _ ->
                fail "module %s has a set requirement, not pairs" m_name
            | Instance.Card all ->
                let sat = satisfiable_pairs m all in
                let attrs =
                  match side with Inputs -> m.Instance.ins | Outputs -> m.Instance.outs
                in
                let count = Array.length attrs in
                if sat = [] then fail "module %s has no satisfiable pair" m_name
                else if List.length sat <> pairs then
                  fail "module %s has %d satisfiable pairs, justification says %d"
                    m_name (List.length sat) pairs
                else if count = 0 then
                  fail "module %s has an empty %s side" m_name (side_to_string side)
                else if not (has v.attr attrs) then
                  fail "%s is not among the %s of %s" v.attr (side_to_string side)
                    m_name
                else if
                  List.for_all
                    (fun (a, b) ->
                      (match side with Inputs -> a | Outputs -> b) = count)
                    sat
                then Ok ()
                else fail "some satisfiable pair of %s spares the %s" m_name
                       (side_to_string side)))
  in
  let* () =
    List.fold_left
      (fun acc v -> match acc with Error _ -> acc | Ok () -> check_verdict v)
      (Ok ()) t.verdicts
  in
  let decided = List.map (fun v -> v.attr) t.verdicts in
  let* () =
    let all = Instance.attrs inst in
    let claimed = decided @ t.undecided in
    if List.length claimed <> List.length (Listx.dedup claimed) then
      fail "an attribute carries two verdicts"
    else if Listx.diff all claimed <> [] || Listx.diff claimed all <> [] then
      fail "verdicts + undecided do not partition the attributes"
    else Ok ()
  in
  let* () =
    match t.infeasible_module with
    | Some name -> (
        match find_mod name with
        | None -> fail "infeasible module %s is unknown" name
        | Some m ->
            if has_option m then
              fail "module %s has a satisfiable option after all" name
            else Ok ())
    | None ->
        if Array.for_all has_option inst.Instance.pmods then Ok ()
        else fail "an infeasible module went unreported"
  in
  let hidden = must_hide t in
  let* () =
    let expect =
      Instance.cost inst ~hidden
        ~privatized:(Instance.required_privatizations inst ~hidden)
    in
    if Rat.equal t.lower_cost expect then Ok ()
    else
      fail "lower bound %s does not price the must-hide set (%s)"
        (Rat.to_string t.lower_cost) (Rat.to_string expect)
  in
  match (t.upper_cost, t.infeasible_module) with
  | None, Some _ -> Ok ()
  | None, None -> fail "no upper bound on a feasible instance"
  | Some _, Some m -> fail "upper bound reported despite infeasible module %s" m
  | Some u, None ->
      let s = Solution.of_mask inst refd in
      if not (Solution.is_feasible inst s) then
        fail "the referenced set does not yield a feasible view"
      else if not (Rat.equal u s.Solution.cost) then
        fail "upper bound %s does not price the referenced set (%s)"
          (Rat.to_string u) (Rat.to_string s.Solution.cost)
      else if Rat.gt t.lower_cost u then
        fail "lower bound %s exceeds upper bound %s" (Rat.to_string t.lower_cost)
          (Rat.to_string u)
      else Ok ()

let pp_verdict fmt v =
  Format.fprintf fmt "%s: %s (%s)" v.attr (kind_to_string v.kind)
    (justification_to_string v.why)
