(* Contract tests for the telemetry sink (lib/obs):

   - counter conservation: the sink's Configs_explored/Configs_reduced
     agree exactly with the explorer's own result record under each
     reduction engine none/sleep/source, and every reduced config is
     accounted by exactly one cause (Configs_reduced = Sleep_prunes +
     Memo_hits + Source_prunes); checking the explored computations in
     batches on 1/2/8 domains leaves those counters untouched and
     returns the same verdicts; test_parallel holds the same counters
     equal across jobs 1/2/8;
   - observational transparency: verdicts and computation fingerprints
     are byte-identical with telemetry on and off;
   - the deterministic stats snapshot is byte-stable across --jobs and
     reduction engines;
   - budget stops land in the per-reason counter exactly once;
   - the disabled sink records nothing;
   - the Chrome-trace exporter writes one well-formed event per line. *)

module T = Gem_obs.Telemetry
module Budget = Gem_check.Budget
module Strategy = Gem_check.Strategy
module Refine = Gem_check.Refine
module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Buffer_problem = Gem_problems.Buffer
module Readers_writers = Gem_problems.Readers_writers

let with_telemetry f =
  T.reset ();
  T.enable ();
  Fun.protect ~finally:(fun () -> T.disable ()) f

let rw readers writers =
  Readers_writers.program ~monitor:Readers_writers.paper_monitor ~readers
    ~writers

let buffer_monitor =
  Buffer_problem.monitor_solution ~capacity:1 ~producers:1 ~consumers:1
    ~items_each:2

let buffer_csp =
  Buffer_problem.csp_solution ~capacity:1 ~producers:1 ~consumers:1
    ~items_each:2

(* ------------------------------------------------------------------ *)
(* Conservation across engine modes                                    *)
(* ------------------------------------------------------------------ *)

(* Exploration is one sequential walk; [jobs] and [batch] shape only
   the checking stage that follows it: the explored computations are
   checked [batch] at a time, each batch on [jobs] domains. Checking must
   leave the exploration counters untouched, and the runs it enumerates
   and the verdicts it returns must not depend on [jobs] or [batch]. *)
let rec chunks n = function
  | [] -> []
  | l ->
      let rec split k acc = function
        | x :: rest when k > 0 -> split (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let chunk, rest = split n [] l in
      chunk :: chunks n rest

let rw_sat ~jobs comps =
  Refine.sat
    ~strategy:(Strategy.Linearizations (Some 10))
    ~jobs ~edges:Refine.Actor_paths
    ~problem:
      (Readers_writers.spec Readers_writers.Readers_priority
         ~users:(Readers_writers.user_names ~readers:2 ~writers:1))
    ~map:Readers_writers.correspondence comps
  |> List.map (fun (_, v) -> Gem_check.Verdict.to_json v)

let check_conservation reduction ~jobs ~batch () =
  with_telemetry (fun () ->
      let o = Monitor.explore ~reduction (rw 2 1) in
      Alcotest.(check int)
        "telemetry explored = result explored" o.Monitor.explored
        (T.read T.Configs_explored);
      Alcotest.(check int)
        "telemetry reduced = result reduced" o.Monitor.reduced
        (T.read T.Configs_reduced);
      Alcotest.(check int)
        "reduced = sleep prunes + memo hits + source prunes"
        (T.read T.Sleep_prunes + T.read T.Memo_hits + T.read T.Source_prunes)
        (T.read T.Configs_reduced);
      (match reduction with
      | Explore.Source_sets ->
          (* The source engine's never-scheduled backtrack candidates
             land in Source_prunes, and the race machinery reports
             through Races_detected/Backtrack_points. *)
          Alcotest.(check bool) "contended workload detects races" true
            (T.read T.Races_detected > 0);
          Alcotest.(check bool) "races seed backtrack points" true
            (T.read T.Backtrack_points > 0)
      | Explore.Sleep_sets ->
          Alcotest.(check int) "no source prunes outside the source engine" 0
            (T.read T.Source_prunes)
      | Explore.No_reduction ->
          Alcotest.(check int) "no source prunes outside the source engine" 0
            (T.read T.Source_prunes);
          Alcotest.(check int) "no sleep prunes without POR" 0
            (T.read T.Sleep_prunes));
      let exploration =
        T.[ Configs_explored; Configs_reduced; Memo_hits; Sleep_prunes; Source_prunes ]
      in
      let before = List.map T.read exploration in
      let runs0 = T.read T.Runs_enumerated in
      let batched =
        List.concat_map (rw_sat ~jobs) (chunks batch o.Monitor.computations)
      in
      let runs1 = T.read T.Runs_enumerated in
      Alcotest.(check bool) "checking enumerates runs" true (runs1 > runs0);
      Alcotest.(check (list int))
        "checking leaves exploration counters untouched" before
        (List.map T.read exploration);
      let whole = rw_sat ~jobs:1 o.Monitor.computations in
      let runs2 = T.read T.Runs_enumerated in
      Alcotest.(check (list string))
        "batched checking agrees with one sequential pass" whole batched;
      Alcotest.(check int) "runs enumerated independent of jobs and batch"
        (runs2 - runs1) (runs1 - runs0))

let conservation_tests =
  List.concat_map
    (fun por ->
      List.map
        (fun (jobs, batch) ->
          Alcotest.test_case
            (Printf.sprintf "conservation por=%b jobs=%d batch=%d" por jobs
               batch)
            `Quick
            (check_conservation
               (if por then Explore.Sleep_sets else Explore.No_reduction)
               ~jobs ~batch))
        [ (1, 1); (2, 7); (8, 1); (8, 64) ])
    [ true; false ]
  @ List.map
      (fun (jobs, batch) ->
        Alcotest.test_case
          (Printf.sprintf "conservation source jobs=%d batch=%d" jobs batch)
          `Quick
          (check_conservation Explore.Source_sets ~jobs ~batch))
      [ (1, 1); (8, 64) ]

(* Cross-language: the CSP interpreter feeds the same sink. *)
let test_conservation_csp () =
  with_telemetry (fun () ->
      let o = Csp.explore ~por:true buffer_csp in
      Alcotest.(check int) "csp explored" o.Csp.explored (T.read T.Configs_explored);
      Alcotest.(check int) "csp reduced" o.Csp.reduced (T.read T.Configs_reduced))

(* ------------------------------------------------------------------ *)
(* Observational transparency                                          *)
(* ------------------------------------------------------------------ *)

let sat_buffer comps =
  Refine.sat_ok
    ~strategy:(Strategy.Linearizations (Some 200))
    ~jobs:1
    ~problem:(Buffer_problem.spec ~capacity:1)
    ~map:Buffer_problem.monitor_correspondence comps

let test_transparency () =
  T.disable ();
  T.reset ();
  let o_off = Monitor.explore ~por:true buffer_monitor in
  let verdict_off = sat_buffer o_off.Monitor.computations in
  let fps_off =
    List.sort compare (List.map Explore.fingerprint o_off.Monitor.computations)
  in
  let verdict_on, fps_on =
    with_telemetry (fun () ->
        let o = Monitor.explore ~por:true buffer_monitor in
        ( sat_buffer o.Monitor.computations,
          List.sort compare (List.map Explore.fingerprint o.Monitor.computations)
        ))
  in
  Alcotest.(check bool) "verdict identical" verdict_off verdict_on;
  Alcotest.(check (list string)) "fingerprints identical" fps_off fps_on

(* ------------------------------------------------------------------ *)
(* Deterministic stats snapshot is --jobs-invariant                    *)
(* ------------------------------------------------------------------ *)

let test_deterministic_stats () =
  let snapshot ?reduction jobs =
    with_telemetry (fun () ->
        let o = Monitor.explore ?reduction ~por:true (rw 2 1) in
        let problem =
          Readers_writers.spec Readers_writers.Free_for_all
            ~users:(Readers_writers.user_names ~readers:2 ~writers:1)
        in
        ignore
          (Refine.sat_ok
             ~strategy:(Strategy.Linearizations (Some 200))
             ~jobs ~edges:Refine.Actor_paths ~problem
             ~map:Readers_writers.correspondence o.Monitor.computations);
        T.stats_json ~deterministic:true ())
  in
  let s1 = snapshot 1 in
  Alcotest.(check string) "jobs=2 snapshot" s1 (snapshot 2);
  Alcotest.(check string) "jobs=8 snapshot" s1 (snapshot 8);
  Alcotest.(check string) "source-engine snapshot" s1
    (snapshot ~reduction:Explore.Source_sets 1);
  Alcotest.(check string) "plain-walk snapshot" s1
    (snapshot ~reduction:Explore.No_reduction 1);
  Alcotest.(check bool) "carries schema_version" true
    (String.length s1 > 0
    && String.sub s1 0 20 = {|{"schema_version":1,|})

(* ------------------------------------------------------------------ *)
(* Budget stops                                                        *)
(* ------------------------------------------------------------------ *)

let test_budget_stop_counter () =
  with_telemetry (fun () ->
      let budget = Budget.make ~max_configs:5 () in
      let o = Monitor.explore ~budget ~por:true (rw 2 1) in
      Alcotest.(check bool) "exploration was cut" true
        (o.Monitor.exhausted <> None);
      Alcotest.(check int) "config-budget stop recorded once" 1
        (T.read T.Budget_stop_configs);
      Alcotest.(check int) "no other stop reasons" 0
        (T.read T.Budget_stop_deadline + T.read T.Budget_stop_runs
       + T.read T.Budget_stop_memory))

(* ------------------------------------------------------------------ *)
(* Disabled sink records nothing                                       *)
(* ------------------------------------------------------------------ *)

let all_counters =
  T.
    [
      Configs_explored; Configs_reduced; Memo_hits; Memo_misses; Sleep_prunes;
      Runs_enumerated; Formula_evals; Vhs_histories; Budget_stop_deadline;
      Budget_stop_configs; Budget_stop_runs; Budget_stop_memory;
      Races_detected; Backtrack_points; Source_prunes;
    ]

let all_phases =
  T.[ Interp_step; Canon_key; Seen_table; Run_enum; Formula_eval; Project; Merge ]

let test_disabled_noop () =
  T.disable ();
  T.reset ();
  let o = Monitor.explore ~por:true buffer_monitor in
  ignore (sat_buffer o.Monitor.computations);
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "counter %s stays zero" (T.counter_name c))
        0 (T.read c))
    all_counters;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "span %s stays zero" (T.phase_name p))
        0 (T.span_count p))
    all_phases

(* ------------------------------------------------------------------ *)
(* Trace export                                                        *)
(* ------------------------------------------------------------------ *)

(* Last in the suite: [trace_to] arms the exporter for the rest of the
   process (there is deliberately no disarm — gemcheck flushes at exit). *)
let test_trace_export () =
  let file = Filename.temp_file "gem_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      T.reset ();
      T.trace_to file;
      Fun.protect
        ~finally:(fun () -> T.disable ())
        (fun () ->
          ignore (Monitor.explore ~por:true buffer_monitor);
          T.flush_trace ());
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      let contains ~needle hay =
        let nh = String.length needle and lh = String.length hay in
        let rec at i = i + nh <= lh && (String.sub hay i nh = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "trace is non-empty" true (List.length lines > 0);
      List.iter
        (fun l ->
          let well_formed =
            String.length l > 9
            && String.sub l 0 9 = {|{"name":"|}
            && l.[String.length l - 1] = '}'
            && contains ~needle:{|"ph":"X"|} l
            && contains ~needle:{|"cat":"gem"|} l
          in
          Alcotest.(check bool)
            (Printf.sprintf "trace line well-formed: %s" l)
            true well_formed)
        lines)

let () =
  Alcotest.run "telemetry"
    [
      ("conservation", conservation_tests);
      ( "cross-language",
        [ Alcotest.test_case "csp conservation" `Quick test_conservation_csp ] );
      ( "transparency",
        [ Alcotest.test_case "verdicts unchanged" `Quick test_transparency ] );
      ( "determinism",
        [
          Alcotest.test_case "stats snapshot jobs-invariant" `Quick
            test_deterministic_stats;
        ] );
      ( "budget",
        [ Alcotest.test_case "stop counter" `Quick test_budget_stop_counter ] );
      ( "disabled",
        [ Alcotest.test_case "no-op sink" `Quick test_disabled_noop ] );
      ( "trace",
        [ Alcotest.test_case "chrome trace export" `Quick test_trace_export ] );
    ]
