(* The benchmark's request generator: every generated spec parses and
   passes the daemon's preflight, a renamed copy keeps its original's
   canonical digest, a seed replays the same request lines, and the
   pools are the fixed ones below. *)

module T = Perfbench_traffic.Traffic

(* MD5 of each workload's rendered pool. Two commits are compared on
   the same traffic only while these hold: a change to the generator or
   to the libraries it draws from ([Svutil.Rng], [Svbench.Corpus],
   [Wf.Gen]) that changes a pool must fail here. *)
let pool_digests =
  [
    ("solve_uncached", "3f7dd33821a836eb7eeba4d785141062");
    ("mixed_churn", "446dbf1dd2d5f0ff51bd970b0b45f233");
  ]

let pool_digest wl =
  Digest.to_hex (Digest.string (String.concat "" (List.map T.render (T.pool_workflows wl))))

let instance ~what text =
  match Serve.Request.spec_of_string ~preflight:true text with
  | Ok spec -> Serve.Request.instance_of spec
  | Error e -> failwith (what ^ ": " ^ Serve.Request.text e)

let first_lines ~seed wl k =
  let s = T.stream ~seed wl (Array.of_list (T.pool_workflows wl)) in
  List.map (fun (r : T.request) -> r.T.line) s.T.warm
  @ List.init k (fun _ -> (s.T.next ()).T.line)

let () =
  let checked = ref 0 in
  let rng = Svutil.Rng.create 1 in
  List.iter
    (fun (name, wl) ->
      List.iteri
        (fun i w ->
          let what = Printf.sprintf "%s member %d" name i in
          let digest = Core.Canon.digest (instance ~what (T.render w)) in
          for _ = 1 to 2 do
            let copy = instance ~what:(what ^ " renamed") (T.render (T.rename rng w).T.wf) in
            if Core.Canon.digest copy <> digest then
              failwith (what ^ ": a renamed copy changed the canonical digest")
          done;
          incr checked)
        (T.pool_workflows wl);
      if pool_digest wl <> List.assoc name pool_digests then
        failwith (Printf.sprintf "%s: the pool changed (digest %s)" name (pool_digest wl));
      if first_lines ~seed:1 wl 20 <> first_lines ~seed:1 wl 20 then
        failwith (name ^ ": the same seed gave different request lines");
      if first_lines ~seed:1 wl 20 = first_lines ~seed:2 wl 20 then
        failwith (name ^ ": the seed does not change the request lines"))
    T.workloads;
  Printf.printf "test_traffic: %d generated specs and their renamed copies checked\n" !checked
