(* Parity suite for parallel checking. Exploration is one sequential walk
   per reduction engine; --jobs only spreads the checking of the explored
   computations over domains (Par.map inside Check, Refine and
   Db_update). So for every lib/problems workload and every reduction
   engine, jobs 1, 2 and 8 must give:

   - the same rendered verdict (the [--json] report and every failing
     verdict, witness included);
   - equal exploration counters (configs_explored, configs_reduced,
     memo_hits, sleep_prunes, source_prunes) — not merely the same
     verdict-relevant content.

   The remaining groups cover Par.map itself (order preservation,
   failure propagation, GEM_JOBS defaulting) and the checking stage on
   random CSP programs (qcheck, reusing Gem_fuzz.Gen). *)

module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module RW = Gem_problems.Readers_writers
module Buffer = Gem_problems.Buffer
module Budget = Gem_check.Budget
module Check = Gem_check.Check
module Par = Gem_check.Par
module Refine = Gem_check.Refine
module Verdict = Gem_check.Verdict
module Strategy = Gem_check.Strategy
module Request = Gem_syntax.Request
module Runner = Gem_daemon.Runner
module T = Gem_obs.Telemetry
module Gen_csp = Gem_fuzz.Gen

let check = Alcotest.check
let strategy = Strategy.Linearizations (Some 200)
let job_counts = [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Workload parity: reduction engine x jobs {1, 2, 8}                  *)
(* ------------------------------------------------------------------ *)

let reductions =
  [ Request.Reduction_none; Request.Reduction_sleep; Request.Reduction_source ]

let counters =
  T.[ Configs_explored; Configs_reduced; Memo_hits; Sleep_prunes; Source_prunes ]

(* One CLI-equivalent run through the shared runner, with the default
   run cap and a configuration cap that keeps the cyclic plain-DFS
   spaces (rwd under --reduction none) small; a budget cut must be just
   as job-independent as a complete run. *)
let observe load reduction jobs =
  let opts =
    Runner.opts_of_engine load
      { Request.default_engine with reduction = Some reduction; jobs }
  in
  T.reset ();
  T.enable ();
  let r =
    Fun.protect ~finally:T.disable (fun () ->
        Runner.run load opts
          ~budget:(Budget.make ~max_configs:20_000 ())
          ~restrict:None)
  in
  let rendered =
    String.concat "\n"
      (Runner.render_json ~command:(Runner.command_name load) r
      :: List.map
           (fun (i, v) -> Format.asprintf "%d %a" i (Verdict.pp None) v)
           r.Runner.failures)
  in
  (rendered, List.map (fun c -> (T.counter_name c, T.read c)) counters)

let assert_parity name load =
  List.iter
    (fun reduction ->
      let base_verdict, base_counters = observe load reduction 1 in
      List.iter
        (fun jobs ->
          let verdict, counters = observe load reduction jobs in
          let tag =
            Printf.sprintf "%s reduction=%s jobs=%d" name
              (Request.reduction_to_string reduction)
              jobs
          in
          check Alcotest.string (tag ^ ": rendered verdict") base_verdict verdict;
          check
            Alcotest.(list (pair string int))
            (tag ^ ": exploration counters") base_counters counters)
        job_counts)
    reductions

let rw monitor ~readers ~writers =
  Runner.Rw { monitor; version = RW.Readers_priority; readers; writers }

let buffer lang ~capacity ~producers ~consumers ~items =
  Runner.Buffer { lang; capacity; producers; consumers; items }

let test_rw_monitor_workloads () =
  assert_parity "rw-paper-1r1w" (rw "paper" ~readers:1 ~writers:1);
  assert_parity "rw-no-exclusion-1r1w" (rw "no-exclusion" ~readers:1 ~writers:1)

let test_buffer_workloads () =
  assert_parity "buffer-monitor-c1p1c1i2"
    (buffer `Monitor ~capacity:1 ~producers:1 ~consumers:1 ~items:2);
  assert_parity "buffer-csp-c1p1c1i2"
    (buffer `Csp ~capacity:1 ~producers:1 ~consumers:1 ~items:2);
  (* The case the retired parallel explorer got wrong: at jobs 2 its
     racing sleep-set walk counted different memo hits. *)
  assert_parity "buffer-ada-c1p2c2i1"
    (buffer `Ada ~capacity:1 ~producers:2 ~consumers:2 ~items:1)

let test_distributed_workloads () =
  List.iter
    (fun (lang, lname) ->
      List.iter
        (fun broken ->
          assert_parity
            (Printf.sprintf "rwd-%s-1r1w broken=%b" lname broken)
            (Runner.Rwd { lang; readers = 1; writers = 1; broken }))
        [ false; true ])
    [ (`Csp, "csp"); (`Ada, "ada") ];
  assert_parity "life-3x3x1"
    (Runner.Life { width = 3; height = 3; generations = 1 })

let test_db_report_parity () = assert_parity "db-2" (Runner.Db { sites = 2 })

(* ------------------------------------------------------------------ *)
(* Byte-identical rendered verdicts from the checking stage             *)
(* ------------------------------------------------------------------ *)

(* Render verdicts in the order the interpreter returned the computations:
   unlike test_por's harness this does NOT re-sort, so it checks the
   canonical-ordering guarantee of the outcome itself, and it runs the
   checking stage parallel (Refine.sat ~jobs) to cover Par.map's order
   preservation. *)
let render ~jobs ~problem ~map ?edges comps =
  let verdicts = Refine.sat ~strategy ~jobs ?edges ~problem ~map comps in
  String.concat "\n"
    (List.map
       (fun (i, v) ->
         Printf.sprintf "%d %s %s" i
           (Verdict.status_keyword (Verdict.status v))
           (Format.asprintf "%a" (Verdict.pp None) v))
       verdicts)

let test_verdicts_byte_identical () =
  let rw_case name monitor version ~readers ~writers =
    let o = Monitor.explore (RW.program ~monitor ~readers ~writers) in
    let comps = o.Monitor.computations in
    let problem = RW.spec version ~users:(RW.user_names ~readers ~writers) in
    let rendered jobs =
      render ~jobs ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence comps
    in
    let base = rendered 1 in
    List.iter
      (fun jobs ->
        check Alcotest.string
          (Printf.sprintf "%s: verdicts byte-identical at jobs=%d" name jobs)
          base (rendered jobs))
      job_counts
  in
  rw_case "rw-paper-verified" RW.paper_monitor RW.Readers_priority ~readers:1
    ~writers:1;
  rw_case "rw-no-exclusion-falsified" RW.no_exclusion_monitor RW.Free_for_all
    ~readers:2 ~writers:1;
  let comps =
    (Csp.explore
       (Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2))
      .Csp.computations
  in
  let buffer_rendered jobs =
    render ~jobs ~problem:(Buffer.spec ~capacity:1) ~map:Buffer.csp_correspondence
      comps
  in
  let base = buffer_rendered 1 in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "buffer-csp: verdicts byte-identical at jobs=%d" jobs)
        base (buffer_rendered jobs))
    job_counts

(* Regression for the latent nondeterminism the canonical merge fixed:
   two runs of the SAME configuration must render the same bytes —
   completed/deadlocked leaves are sorted by canonical key and
   deduplication is fingerprint-sorted, so nothing about traversal order
   can leak into reports. *)
let test_sequential_runs_identical () =
  let prog = RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1 in
  let problem = RW.spec RW.Readers_priority ~users:(RW.user_names ~readers:2 ~writers:1) in
  let rendered jobs =
    let o = Monitor.explore prog in
    render ~jobs ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence
      o.Monitor.computations
  in
  check Alcotest.string "two sequential runs render identically" (rendered 1)
    (rendered 1);
  check Alcotest.string "two jobs=8 checks render identically" (rendered 8)
    (rendered 8)

(* ------------------------------------------------------------------ *)
(* Par.map: ordering, failure propagation, job-count defaulting        *)
(* ------------------------------------------------------------------ *)

let test_par_map_preserves_order () =
  List.iter
    (fun jobs ->
      let xs = List.init 97 Fun.id in
      check
        Alcotest.(list int)
        (Printf.sprintf "map id at jobs=%d" jobs)
        (List.map (fun x -> x * x) xs)
        (Par.map ~jobs (fun x -> x * x) xs);
      check Alcotest.(list int) "empty input" [] (Par.map ~jobs (fun x -> x) []))
    [ 1; 2; 8 ]

exception Boom

let test_par_map_reraises () =
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "exception propagates at jobs=%d" jobs)
        true
        (try
           ignore (Par.map ~jobs (fun x -> if x = 41 then raise Boom else x) (List.init 64 Fun.id));
           false
         with Boom -> true))
    [ 1; 2; 8 ]

let test_jobs_default_env () =
  (* jobs_default reads GEM_JOBS leniently: unset/garbage/non-positive all
     fall back to 1 — library callers never fail on a bad environment;
     strict validation is the CLI's job. *)
  let saved = Option.value ~default:"" (Sys.getenv_opt "GEM_JOBS") in
  let with_env v f =
    (match v with None -> Unix.putenv "GEM_JOBS" "" | Some s -> Unix.putenv "GEM_JOBS" s);
    Fun.protect ~finally:(fun () -> Unix.putenv "GEM_JOBS" saved) f
  in
  with_env (Some "3") (fun () ->
      check Alcotest.int "GEM_JOBS=3" 3 (Par.jobs_default ()));
  with_env (Some "not-a-number") (fun () ->
      check Alcotest.int "garbage falls back to 1" 1 (Par.jobs_default ()));
  with_env (Some "0") (fun () ->
      check Alcotest.int "zero falls back to 1" 1 (Par.jobs_default ()));
  with_env None (fun () -> check Alcotest.int "unset means 1" 1 (Par.jobs_default ()))

(* ------------------------------------------------------------------ *)
(* Random loop-free CSP programs (qcheck)                              *)
(* ------------------------------------------------------------------ *)

(* Checking a random program's computations against its language spec
   gives the same verdict list at every job count. *)
let prop_csp_random_parallel_parity =
  QCheck.Test.make ~name:"random CSP: jobs in {2,8} agree with sequential"
    ~count:40 Gen_csp.prog_arb (fun prog ->
      let spec = Csp.language_spec prog in
      let rendered jobs =
        List.map
          (fun v -> Format.asprintf "%a" (Verdict.pp None) v)
          (Check.check_all ~strategy ~jobs spec
             (Csp.explore prog).Csp.computations)
      in
      let base = rendered 1 in
      List.for_all (fun jobs -> rendered jobs = base) job_counts)

let () =
  let to_alc = QCheck_alcotest.to_alcotest in
  Alcotest.run "gem_parallel"
    [
      ( "workload-parity",
        [
          Alcotest.test_case "rw-monitor workloads" `Quick test_rw_monitor_workloads;
          Alcotest.test_case "buffer workloads" `Quick test_buffer_workloads;
          Alcotest.test_case "distributed workloads" `Quick test_distributed_workloads;
          Alcotest.test_case "db-update report" `Quick test_db_report_parity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "verdicts byte-identical" `Quick test_verdicts_byte_identical;
          Alcotest.test_case "repeated runs identical" `Quick test_sequential_runs_identical;
        ] );
      ( "par-map",
        [
          Alcotest.test_case "order preserved" `Quick test_par_map_preserves_order;
          Alcotest.test_case "failure re-raised" `Quick test_par_map_reraises;
          Alcotest.test_case "GEM_JOBS defaulting" `Quick test_jobs_default_env;
        ] );
      ("random-programs", [ to_alc prop_csp_random_parallel_parity ]);
    ]
