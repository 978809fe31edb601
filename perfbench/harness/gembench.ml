(* gembench: the in-process half of perfbench (see perfbench/README.md).

   perfbench/run.py times whole [gemcheck] processes. This program does
   the parts that need one OCaml process:

   - [setup]: time request parsing and program/spec construction;
   - [serve]: drive [gemcheck serve] daemons with two closed-loop client
     threads and check every response body against the one-shot report;
   - [trace]: drive the same inputs through each layer's public entry
     point with a span around every call, and report per-layer self
     times and counts.

   Standard input carries the workload, one item per line: [input
   NAME<TAB>REQUEST] for each input, then for [serve] and [trace] one or
   more [seq I,J,...] lines of indices into the inputs, one request
   sequence each. Each mode prints one JSON object on standard output. *)

module Systhread = Thread (* [Gem.Thread] is the spec layer's *)

open Gem
module R = Request

(* Seconds on the monotonic clock, to the nanosecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* JSON output and statistics                                          *)
(* ------------------------------------------------------------------ *)

let jstr s = "\"" ^ Server.json_escape s ^ "\""
let jint = string_of_int
let jfloat f = if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
let jarr xs = "[" ^ String.concat "," xs ^ "]"
let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let third (_, _, x) = x

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type input = { name : string; line : string; check : R.check; load : Runner.load }

let parse_check line =
  match R.parse line with
  | Ok (R.Check c) -> (
      match Runner.of_request c with Ok load -> Ok (c, load) | Error e -> Error e)
  | Ok (R.Ping | R.Stats) -> Error "not a check request"
  | Error e -> Error e

(* The part of [s] after the first occurrence of [pat]. *)
let after s pat =
  let n = String.length s and m = String.length pat in
  let rec scan i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (String.sub s (i + m) (n - i - m))
    else scan (i + 1)
  in
  scan 0

let split_at c s =
  match String.index_opt s c with
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

let read_workload () =
  let inputs = ref [] and seqs = ref [] in
  (try
     while true do
       match split_at ' ' (input_line stdin) with
       | Some ("input", rest) -> (
           match split_at '\t' rest with
           | Some (name, line) -> (
               match parse_check line with
               | Ok (check, load) -> inputs := { name; line; check; load } :: !inputs
               | Error e -> fail "input %s: %s" name e)
           | None -> fail "malformed input line %S" rest)
       | Some ("seq", rest) ->
           let seq = List.map int_of_string (String.split_on_char ',' rest) in
           seqs := Array.of_list seq :: !seqs
       | _ -> fail "malformed workload line"
     done
   with End_of_file -> ());
  let inputs = Array.of_list (List.rev !inputs) in
  if Array.length inputs = 0 then fail "no inputs on standard input";
  let seqs = List.rev !seqs in
  let check i =
    if i < 0 || i >= Array.length inputs then fail "sequence index %d out of range" i
  in
  List.iter (Array.iter check) seqs;
  (inputs, seqs)

(* ------------------------------------------------------------------ *)
(* The layers the runner composes, called one by one                   *)
(* ------------------------------------------------------------------ *)

let rw_monitor name =
  match Runner.monitor_of_name name with Ok m -> m | Error e -> failwith e

(* The problems layer: the program constructor and problem spec the
   runner builds for [load]. The program is built for its cost only —
   [Runner.explore] builds its own. *)
let build_problem load =
  let keep x = ignore (Sys.opaque_identity x) in
  match load with
  | Runner.Rw { monitor; version; readers; writers } ->
      keep (Readers_writers.program ~monitor:(rw_monitor monitor) ~readers ~writers);
      let users = Readers_writers.user_names ~readers ~writers in
      Some (Readers_writers.spec version ~users)
  | Runner.Buffer { lang; capacity; producers; consumers; items } ->
      (match lang with
      | `Monitor ->
          keep
            (Buffer_problem.monitor_solution ~capacity ~producers ~consumers
               ~items_each:items)
      | `Csp ->
          keep
            (Buffer_problem.csp_solution ~capacity ~producers ~consumers
               ~items_each:items)
      | `Ada ->
          keep
            (Buffer_problem.ada_solution ~capacity ~producers ~consumers
               ~items_each:items));
      Some (Buffer_problem.spec ~capacity)
  | Runner.Rwd { lang; readers; writers; broken } ->
      (match (lang, broken) with
      | `Csp, false -> keep (Rw_distributed.csp_program ~readers ~writers)
      | `Csp, true -> keep (Rw_distributed.csp_program_no_priority ~readers ~writers)
      | `Ada, false -> keep (Rw_distributed.ada_program ~readers ~writers)
      | `Ada, true -> keep (Rw_distributed.ada_program_no_priority ~readers ~writers));
      let rnames, wnames = Rw_distributed.user_names ~readers ~writers in
      Some (Rw_distributed.spec ~readers:rnames ~writers:wnames)
  | Runner.Db { sites } ->
      keep (Db_update.program ~sites);
      None
  | Runner.Life _ -> fail "life is not a benchmark input"

(* The edge rule and correspondence [Runner.conclude] projects with. *)
let refinement = function
  | Runner.Rw _ -> (Refine.Actor_paths, Readers_writers.correspondence)
  | Runner.Buffer { lang = `Monitor; _ } ->
      (Refine.Causal_paths, Buffer_problem.monitor_correspondence)
  | Runner.Buffer { lang = `Csp; _ } ->
      (Refine.Causal_paths, Buffer_problem.csp_correspondence)
  | Runner.Buffer { lang = `Ada; _ } ->
      (Refine.Causal_paths, Buffer_problem.ada_correspondence)
  | Runner.Rwd { lang = `Csp; _ } ->
      (Refine.Causal_paths, Rw_distributed.csp_correspondence)
  | Runner.Rwd { lang = `Ada; _ } ->
      (Refine.Causal_paths, Rw_distributed.ada_correspondence)
  | Runner.Db _ | Runner.Life _ -> invalid_arg "refinement"

let budget_of (c : R.check) =
  Budget.make ?max_configs:c.R.engine.R.max_configs ?max_runs:c.R.engine.R.max_runs ()

(* The one-shot path, untraced: what [gemcheck CMD --json] computes. *)
let one_shot inp =
  let opts = Runner.opts_of_engine inp.load inp.check.R.engine in
  let budget = budget_of inp.check in
  let r = Runner.run inp.load opts ~budget ~restrict:inp.check.R.restrict in
  (r, Runner.render_json ~command:(Runner.command_name inp.load) r)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Spans = struct
  type t = { id : int; parent : int; trace : int; name : string; t0 : float; t1 : float }

  let lock = Mutex.create ()
  let next = Atomic.make 0
  let recorded = ref []

  let fresh () = Atomic.fetch_and_add next 1
  let record s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

  (* [run ~trace ~parent name f] times [f id]; children pass [id] as
     their parent. Spans of one input or request share [trace]. *)
  let run ~trace ~parent name f =
    let id = fresh () in
    let t0 = now () in
    let r = f id in
    record { id; parent; trace; name; t0; t1 = now () };
    r

  let take () =
    Mutex.protect lock (fun () ->
        let l = List.rev !recorded in
        recorded := [];
        l)

  let dur s = s.t1 -. s.t0

  (* Self time per span name: duration minus the time its children cover. *)
  let self_times spans =
    let children = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            (dur s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
      spans;
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt children s.id) in
        Hashtbl.replace by_name s.name
          (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
      spans;
    fun name -> Option.value ~default:0. (Hashtbl.find_opt by_name name)

  let write path spans =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun s ->
            output_string oc
              (jobj
                 [
                   ("id", jint s.id);
                   ("parent", jint s.parent);
                   ("trace", jint s.trace);
                   ("name", jstr s.name);
                   ("start_us", jfloat (s.t0 *. 1e6));
                   ("dur_us", jfloat (dur s *. 1e6));
                 ]);
            output_char oc '\n')
          spans)
end

(* ------------------------------------------------------------------ *)
(* The traced pipeline                                                 *)
(* ------------------------------------------------------------------ *)

(* Counts taken at the same boundaries as the spans. *)
type tally = {
  mutable computations : int;
  mutable explored : int;
  mutable reduced : int;
  mutable projections : int;
  mutable enumerations : int;
  mutable capped : int;
  mutable runs : int;
  mutable eval_calls : int;
}

let new_tally () =
  {
    computations = 0;
    explored = 0;
    reduced = 0;
    projections = 0;
    enumerations = 0;
    capped = 0;
    runs = 0;
    eval_calls = 0;
  }

(* [Check.check] on one projected computation, layer by layer: legality
   and thread labels (spec), run enumeration (strategy), formula
   evaluation (eval). The run loop is one [eval] span per computation. *)
let check_projection ~trace ~root ~tally ~budget ~strategy spec proj =
  let span name f = Spans.run ~trace ~parent:root name (fun _ -> f ()) in
  let spec_name = spec.Spec.spec_name in
  let legality = span "spec.legality" (fun () -> Legality.check spec proj) in
  if legality <> [] then Verdict.legal_verdict ~spec_name legality
  else begin
    let comp = span "spec.legality" (fun () -> Spec.label_threads spec proj) in
    let immediate, temporal =
      List.partition (fun (_, f) -> Formula.is_immediate f) (Spec.all_restrictions spec)
    in
    let failures = ref [] in
    let failed restriction formula witness =
      failures := { Verdict.restriction; formula; witness } :: !failures
    in
    let eval f =
      tally.eval_calls <- tally.eval_calls + 1;
      f ()
    in
    span "eval" (fun () ->
        List.iter
          (fun (name, f) ->
            if not (eval (fun () -> Eval.eval_computation comp f)) then
              failed name f None)
          immediate);
    let runs_checked = ref 0 and exhaustion = ref None and complete = ref true in
    if temporal <> [] then begin
      let enum =
        span "strategy.enumerate" (fun () -> Strategy.enumerate ~budget strategy comp)
      in
      tally.enumerations <- tally.enumerations + 1;
      complete := enum.Strategy.complete;
      Option.iter
        (fun cap ->
          tally.capped <- tally.capped + 1;
          exhaustion := Some (Budget.Run_cap cap))
        enum.Strategy.truncated_at;
      let rec loop pending = function
        | [] -> ()
        | run :: rest ->
            if not (Budget.charge_run budget) then exhaustion := Budget.exhausted budget
            else begin
              incr runs_checked;
              let pending =
                List.filter
                  (fun (name, f) ->
                    eval (fun () -> Eval.eval_run run f)
                    ||
                    (failed name f (Some run);
                     false))
                  pending
              in
              if pending <> [] then loop pending rest
            end
      in
      span "eval" (fun () -> loop temporal enum.Strategy.runs)
    end;
    tally.runs <- tally.runs + !runs_checked;
    {
      Verdict.spec_name;
      legality = [];
      failures = List.rev !failures;
      runs_checked = !runs_checked;
      complete = !complete;
      exhaustion = !exhaustion;
      coverage =
        {
          Budget.full_coverage with
          Budget.runs_enumerated = !runs_checked;
          runs_complete = !complete;
        };
    }
  end

let projection_failure spec_name err =
  {
    Verdict.spec_name;
    legality = [];
    failures =
      [
        {
          Verdict.restriction = Format.asprintf "%a" Refine.pp_projection_error err;
          formula = Formula.False;
          witness = None;
        };
      ];
    runs_checked = 0;
    complete = true;
    exhaustion = None;
    coverage = Budget.full_coverage;
  }

(* One input through every layer, each call in its own span under an
   [input] root span. Returns the report the runner would render. *)
let traced ~tally ~trace inp =
  Spans.run ~trace ~parent:(-1) "input" @@ fun root ->
  let span name f = Spans.run ~trace ~parent:root name (fun _ -> f ()) in
  let check, load =
    span "syntax.parse" (fun () ->
        match parse_check inp.line with Ok cl -> cl | Error e -> failwith e)
  in
  let spec = span "problems.build" (fun () -> build_problem load) in
  let opts = Runner.opts_of_engine load check.R.engine in
  let budget = budget_of check in
  let strategy = span "strategy.enumerate" (fun () -> Strategy.of_budget budget) in
  let status, coverage =
    match (load, spec) with
    | Runner.Db { sites }, _ ->
        let r =
          span "lang.explore" (fun () ->
              Db_update.check ?reduction:opts.Runner.reduction ?por:opts.Runner.por
                ?exact_keys:opts.Runner.exact_keys ?audit_keys:opts.Runner.audit_keys
                ~budget ~jobs:opts.Runner.jobs ~batch:opts.Runner.batch
                ~resilience:opts.Runner.resilience ~sites ())
        in
        tally.computations <- tally.computations + r.Db_update.computations;
        tally.explored <- tally.explored + r.Db_update.explored;
        tally.reduced <- tally.reduced + r.Db_update.reduced;
        let status =
          if (not r.Db_update.converges) || r.Db_update.deadlocks > 0 then
            Verdict.Falsified
          else
            match r.Db_update.exhausted with
            | Some reason -> Verdict.Inconclusive reason
            | None -> Verdict.Verified
        in
        ( status,
          {
            Budget.full_coverage with
            Budget.configs_explored = r.Db_update.explored;
            configs_reduced = r.Db_update.reduced;
            runs_complete = r.Db_update.exhausted = None;
          } )
    | _, None -> fail "%s: no problem spec" inp.name
    | _, Some spec ->
        let x =
          match span "lang.explore" (fun () -> Runner.explore load opts ~budget) with
          | Some x -> x
          | None -> fail "%s: no exploration" inp.name
        in
        tally.computations <- tally.computations + List.length x.Runner.x_computations;
        tally.explored <- tally.explored + x.Runner.x_explored;
        tally.reduced <- tally.reduced + x.Runner.x_reduced;
        let spec =
          match check.R.restrict with
          | None -> spec
          | Some f ->
              let extra = [ (R.restriction_name, f) ] in
              { spec with Spec.restrictions = spec.Spec.restrictions @ extra }
        in
        let edges, map = refinement load in
        let verdicts =
          List.map
            (fun comp ->
              tally.projections <- tally.projections + 1;
              match
                span "refine.project" (fun () ->
                    Refine.project ~edges map comp ~elements:spec.Spec.elements
                      ~groups:spec.Spec.groups)
              with
              | Error err -> projection_failure spec.Spec.spec_name err
              | Ok proj ->
                  check_projection ~trace ~root ~tally ~budget ~strategy spec proj)
            x.Runner.x_computations
        in
        (* rw reports deadlocks in its detail only; buffer and rwd fail on them. *)
        let deadlocked =
          match load with Runner.Rw _ -> false | _ -> x.Runner.x_deadlocks > 0
        in
        let status =
          match (Verdict.overall verdicts, x.Runner.x_exhausted) with
          | _ when deadlocked -> Verdict.Falsified
          | Verdict.Falsified, _ -> Verdict.Falsified
          | _, Some reason -> Verdict.Inconclusive reason
          | s, None -> s
        in
        ( status,
          {
            Budget.configs_explored = x.Runner.x_explored;
            configs_reduced = x.Runner.x_reduced;
            branches_truncated = x.Runner.x_truncated;
            runs_enumerated =
              List.fold_left (fun n v -> n + v.Verdict.runs_checked) 0 verdicts;
            runs_complete = List.for_all (fun v -> v.Verdict.complete) verdicts;
          } )
  in
  let result =
    {
      Runner.status;
      detail = "";
      coverage;
      failures = [];
      exit_code = Verdict.exit_code status;
    }
  in
  let command = Runner.command_name load in
  ignore (span "render" (fun () -> Runner.render_json ~command result));
  result

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

(* [Client.field_int] stops at the decimal point. *)
let field_float header name =
  match after header (Printf.sprintf "\"%s\":" name) with
  | None -> None
  | Some rest ->
      let j = ref 0 in
      while
        !j < String.length rest
        && match rest.[!j] with '0' .. '9' | '.' | '-' -> true | _ -> false
      do
        incr j
      done;
      float_of_string_opt (String.sub rest 0 !j)

type sample = {
  latency : float;  (** Client round trip, seconds. *)
  provenance : string;  (** hit, miss or coalesced; "" on failure. *)
  handler_s : float;  (** The header's elapsed_ms, in seconds. *)
  error : string option;
}

(* Two closed-loop clients share one request sequence: each sends its
   next request only when the previous reply is in. *)
let clients = 2

let drive ?(span = fun _ f -> f ()) ~socket ~inputs ~refs seq =
  let n = Array.length seq in
  let next = Atomic.make 0 in
  let samples = Array.make n None in
  let client () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let k = seq.(i) in
        let t0 = now () in
        let reply = span i (fun () -> Client.request ~socket inputs.(k).line) in
        let latency = now () -. t0 in
        let code, body = refs.(k) in
        samples.(i) <-
          Some
            (match reply with
            | Error e -> { latency; provenance = ""; handler_s = 0.; error = Some e }
            | Ok { Client.error = Some e; _ } ->
                { latency; provenance = ""; handler_s = 0.; error = Some e }
            | Ok r ->
                let name = inputs.(k).name and header = r.Client.header in
                let error =
                  if r.Client.body <> [ body ] then
                    Some (name ^ ": body differs from the one-shot report")
                  else if r.Client.code <> code then
                    Some
                      (Printf.sprintf "%s: exit code %d, one-shot %d" name r.Client.code
                         code)
                  else None
                in
                {
                  latency;
                  provenance =
                    Option.value ~default:"" (Client.field_string header "cache");
                  handler_s =
                    Option.value ~default:0. (field_float header "elapsed_ms") /. 1000.;
                  error;
                });
        loop ()
      end
    in
    loop ()
  in
  let t0 = now () in
  List.iter Systhread.join (List.init clients (fun _ -> Systhread.create client ()));
  let wall = now () -. t0 in
  (wall, Array.to_list (Array.map Option.get samples))

let count_provenance samples p =
  List.length (List.filter (fun s -> s.provenance = p && s.error = None) samples)

let errors samples = List.filter_map (fun s -> s.error) samples

let run_dir = ".bench_run"

let socket_name tag =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.sprintf "%s/%s-%d.sock" run_dir tag (Unix.getpid ())

(* ------------------------------------------------------------------ *)
(* Daemon processes                                                    *)
(* ------------------------------------------------------------------ *)

let vm_hwm_kib pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> scan ()
        | exception End_of_file -> 0
      in
      scan ())

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

(* Spawn [gemcheck serve] and wait for its first answered ping; the
   wait is the daemon's set-up time. *)
let spawn_daemon ~gemcheck ~socket =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process gemcheck
          [| gemcheck; "serve"; "--socket"; socket |]
          devnull devnull Unix.stderr)
  in
  let rec wait () =
    match Client.request ~socket "ping" with
    | Ok { Client.error = None; _ } -> now () -. t0
    | _ when now () -. t0 > 30. ->
        ignore (stop_daemon pid);
        fail "gemcheck serve did not answer a ping within 30 s"
    | _ ->
        Unix.sleepf 0.0002;
        wait ()
  in
  (pid, wait ())

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let input_rows inputs f =
  let row i inp = jobj (("name", jstr inp.name) :: f i inp) in
  jarr (Array.to_list (Array.mapi row inputs))

let report_fields (r : Runner.result) =
  [
    ("status", jstr (Verdict.status_keyword r.Runner.status));
    ("explored", jint r.Runner.coverage.Budget.configs_explored);
    ("runs", jint r.Runner.coverage.Budget.runs_enumerated);
  ]

(* Set-up: request parse, then program and problem-spec construction.
   Each is timed over batches of calls, since one call is near the
   clock's resolution, and reported as the median batch's mean. *)
let setup_mode inputs =
  let rounds = 9 and batch = 200 in
  let time f =
    median
      (List.init rounds (fun _ ->
           let t0 = now () in
           for _ = 1 to batch do
             ignore (Sys.opaque_identity (f ()))
           done;
           (now () -. t0) /. float batch))
  in
  input_rows inputs (fun _ inp ->
      [
        ("parse_s", jfloat (time (fun () -> parse_check inp.line)));
        ("build_s", jfloat (time (fun () -> build_problem inp.load)));
      ])

(* Untraced serving: a fresh daemon per pass, so every pass computes the
   same cold entries. Pass [k] sends sequence [k] (cycling); passes
   repeat until [seconds]. *)
let serve_mode ~gemcheck ~seconds inputs seqs =
  if seqs = [] then fail "serve needs a request sequence";
  let seqs = Array.of_list seqs in
  (* Every input's one-shot report, built once before the first pass. *)
  let refs =
    Array.map
      (fun inp ->
        let t0 = now () in
        let r, body = one_shot inp in
        (r, (r.Runner.exit_code, body), now () -. t0))
      inputs
  in
  let bodies = Array.map (fun (_, b, _) -> b) refs in
  let deadline = now () +. seconds in
  let requests = Array.make (Array.length inputs) 0 in
  let setups = ref [] and passes = ref [] and rss = ref [] and exits = ref [] in
  let shared = ref 0 in
  (* Spawn a daemon, run [f] against it, and always stop it. *)
  let with_daemon tag f =
    let socket = socket_name tag in
    let pid, setup = spawn_daemon ~gemcheck ~socket in
    setups := setup :: !setups;
    Fun.protect
      ~finally:(fun () -> exits := stop_daemon pid :: !exits)
      (fun () -> f socket pid)
  in
  let rec pass k =
    let seq = seqs.(k mod Array.length seqs) in
    let wall =
      with_daemon (Printf.sprintf "serve%d" k) (fun socket pid ->
          let wall, samples = drive ~socket ~inputs ~refs:bodies seq in
          (match Client.request ~socket "stats" with
          | Ok { Client.body = [ stats ]; _ } ->
              (* The exploration cache's hits and coalesced waits are
                 misses that reused another request's exploration. *)
              let field key =
                match after stats "\"explorations\":" with
                | Some rest -> Option.value ~default:0 (Client.field_int rest key)
                | None -> 0
              in
              shared := !shared + field "hits" + field "coalesced"
          | _ -> fail "stats request failed");
          rss := vm_hwm_kib pid :: !rss;
          passes := (wall, samples) :: !passes;
          wall)
    in
    Array.iter (fun i -> requests.(i) <- requests.(i) + 1) seq;
    if now () +. wall < deadline then pass (k + 1)
  in
  pass 0;
  (* At least five set-up samples, however few passes fit. *)
  while List.length !setups < 5 do
    with_daemon "setup" (fun _ _ -> ())
  done;
  let passes = List.rev !passes in
  let samples = List.concat_map snd passes in
  jobj
    [
      ( "inputs",
        input_rows inputs (fun i _ ->
            let r, _, wall = refs.(i) in
            ("requests", jint requests.(i))
            :: ("wall_s", jfloat wall)
            :: report_fields r) );
      ("pass_s", jarr (List.map (fun (w, _) -> jfloat w) passes));
      ("latency_s", jarr (List.map (fun s -> jfloat s.latency) samples));
      ("setup_s", jarr (List.rev_map jfloat !setups));
      ("rss_kib", jarr (List.rev_map jint !rss));
      ("hits", jint (count_provenance samples "hit"));
      ("misses", jint (count_provenance samples "miss"));
      ("coalesced", jint (count_provenance samples "coalesced"));
      ("explorations_shared", jint !shared);
      ("daemon_exits", jarr (List.rev_map jint !exits));
      ("errors", jarr (List.map jstr (errors samples)));
    ]

(* The handler cannot see which client request it serves, so each
   [serve.handle] span is attached afterwards to the [serve.request] span
   with the same request line whose interval contains it (the latest such
   one when duplicates overlap). It then shares that request's trace id. *)
let link_handler_spans ~line_of handled =
  let requests = Spans.take () in
  let by_line = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.add by_line (line_of r.Spans.trace) r) requests;
  let taken = Hashtbl.create 1024 in
  List.iter
    (fun (line, t0, t1, _) ->
      let fits r =
        r.Spans.t0 <= t0 && t1 <= r.Spans.t1 && not (Hashtbl.mem taken r.Spans.id)
      in
      let owner =
        List.fold_left
          (fun best r ->
            match best with
            | Some b when b.Spans.t0 >= r.Spans.t0 -> best
            | _ -> if fits r then Some r else best)
          None (Hashtbl.find_all by_line line)
      in
      Option.iter (fun r -> Hashtbl.replace taken r.Spans.id ()) owner;
      let parent, trace =
        match owner with Some r -> (r.Spans.id, r.Spans.trace) | None -> (-1, -1)
      in
      let id = Spans.fresh () in
      Spans.record { Spans.id; parent; trace; name = "serve.handle"; t0; t1 })
    handled;
  List.iter Spans.record requests

(* Traced serving: the daemon's handler runs in-process on its own
   domain, behind [Server.run], timed around each [Handler.handle] call;
   the clients span each [Client.request]. *)
let serve_traced ~inputs ~refs seq =
  Telemetry.reset ();
  Telemetry.enable ();
  let socket = socket_name "trace" in
  let server = Server.create ~socket () in
  let state = Handler.create ~cache_size:128 () in
  let handled = ref [] and lock = Mutex.create () in
  let handler line =
    let t0 = now () in
    let reply = Handler.handle state line in
    let t1 = now () in
    (match reply with
    | header :: _ ->
        let p = Option.value ~default:"" (Client.field_string header "cache") in
        Mutex.protect lock (fun () -> handled := (line, t0, t1, p) :: !handled)
    | [] -> ());
    reply
  in
  let daemon = Domain.spawn (fun () -> Server.run server ~handler) in
  let _, samples =
    Fun.protect
      ~finally:(fun () ->
        Server.request_stop server;
        Domain.join daemon)
      (fun () ->
        let span i f = Spans.run ~trace:i ~parent:(-1) "serve.request" (fun _ -> f ()) in
        drive ~span ~socket ~inputs ~refs seq)
  in
  Telemetry.disable ();
  link_handler_spans ~line_of:(fun i -> inputs.(seq.(i)).line) !handled;
  let answered = List.length (List.filter (fun s -> s.error = None) samples) in
  let provenances =
    List.fold_left
      (fun n p -> n + count_provenance samples p)
      0 [ "hit"; "miss"; "coalesced" ]
  in
  let errors =
    errors samples
    @
    if provenances = answered then []
    else [ "hits + misses + coalesced does not add up to the requests answered" ]
  in
  let handler_ms p =
    1000.
    *. median
         (List.filter_map
            (fun (_, t0, t1, q) -> if q = p then Some (t1 -. t0) else None)
            !handled)
  in
  let n = float (List.length samples) in
  ( [
      ("serve.hit_ms", handler_ms "hit");
      ("serve.miss_ms", handler_ms "miss");
      ( "serve.wait_ms",
        1000. *. median (List.map (fun s -> s.latency -. s.handler_s) samples) );
      ("serve.hit_ratio", float (count_provenance samples "hit") /. n);
      ("serve.coalesced", float (count_provenance samples "coalesced"));
      ("serve.explorations_shared", float (Telemetry.read Telemetry.Explorations_shared));
    ],
    errors )

(* One traced pass: every input once through [one_shot] with telemetry
   off and once through [traced] with it on. Which goes first alternates
   from pass to pass, so neither always runs on a warmer heap. *)
let trace_pass ~pass inputs =
  let run_untraced () =
    Telemetry.disable ();
    Array.map
      (fun inp ->
        let t0 = now () in
        let r, body = one_shot inp in
        (r, body, now () -. t0))
      inputs
  in
  let tally = new_tally () in
  let run_traced () =
    Telemetry.reset ();
    Telemetry.enable ();
    let n = Array.length inputs in
    let traced =
      Array.mapi (fun i inp -> traced ~tally ~trace:((pass * n) + i) inp) inputs
    in
    Telemetry.disable ();
    traced
  in
  let untraced, traced =
    if pass mod 2 = 0 then
      let u = run_untraced () in
      (u, run_traced ())
    else
      let t = run_traced () in
      (run_untraced (), t)
  in
  let spans = Spans.take () in
  let self = Spans.self_times spans in
  let roots = List.filter (fun s -> s.Spans.parent < 0) spans in
  let traced_wall = sum (List.map Spans.dur roots) in
  let untraced_wall = sum (Array.to_list (Array.map (fun (_, _, w) -> w) untraced)) in
  let phase p = float (Telemetry.span_ns p) /. 1e9 in
  let ratio a b = if b > 0. then a /. b else 0. in
  let count x = float x in
  let explore_s = self "lang.explore" and eval_s = self "eval" in
  let metrics =
    [
      ("syntax.parse_s", self "syntax.parse");
      ("problems.build_s", self "problems.build");
      ("lang.explore_s", explore_s);
      ("lang.configs_explored", count tally.explored);
      ("lang.configs_per_s", ratio (count tally.explored) explore_s);
      ( "lang.prune_ratio",
        ratio (count tally.reduced) (count (tally.explored + tally.reduced)) );
      ("lang.computations", count tally.computations);
      ("lang.interp_step_s", phase Telemetry.Interp_step);
      ("lang.canon_key_s", phase Telemetry.Canon_key);
      ("lang.seen_table_s", phase Telemetry.Seen_table);
      ("lang.merge_s", phase Telemetry.Merge);
      ("refine.project_s", self "refine.project");
      ("refine.projections", count tally.projections);
      ("spec.legality_s", self "spec.legality");
      ("strategy.enumerate_s", self "strategy.enumerate");
      ("strategy.runs", count tally.runs);
      ("strategy.capped_share", ratio (count tally.capped) (count tally.enumerations));
      ("eval.s", eval_s);
      ("eval.calls", count tally.eval_calls);
      ("eval.calls_per_s", ratio (count tally.eval_calls) eval_s);
      ("render.s", self "render");
      ("obs.overhead_share", (traced_wall /. untraced_wall) -. 1.);
      ("obs.unattributed_s", self "input");
    ]
  in
  (untraced, traced, metrics, spans)

(* Counts must repeat exactly from pass to pass; times are medians. *)
let is_count name =
  List.mem name
    [
      "lang.configs_explored";
      "lang.computations";
      "refine.projections";
      "strategy.runs";
      "eval.calls";
    ]

let trace_mode ~seconds ~spans_path inputs seqs =
  let deadline = now () +. seconds in
  let rec passes k acc =
    let t0 = now () in
    let p = trace_pass ~pass:k inputs in
    let acc = p :: acc in
    if now () +. (now () -. t0) < deadline then passes (k + 1) acc else List.rev acc
  in
  let all = passes 0 [] in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let untraced, traced, first, _ = List.hd all in
  List.iter
    (fun (u, t, _, _) ->
      Array.iteri
        (fun i (r, _, _) ->
          let key (r : Runner.result) =
            ( Verdict.status_keyword r.Runner.status,
              r.Runner.coverage.Budget.configs_explored,
              r.Runner.coverage.Budget.runs_enumerated )
          in
          if key r <> key t.(i) then
            problem "%s: traced verdict or coverage differs from Runner.run"
              inputs.(i).name)
        u)
    all;
  let metric name = List.map (fun (_, _, m, _) -> List.assoc name m) all in
  let metrics =
    List.map
      (fun (name, v) ->
        if is_count name then begin
          if List.exists (fun w -> w <> v) (metric name) then
            problem "%s differs between passes" name;
          (name, v)
        end
        else (name, median (metric name)))
      first
  in
  let refs = Array.map (fun (r, body, _) -> (r.Runner.exit_code, body)) untraced in
  let serve_metrics, serve_errors =
    match seqs with [] -> ([], []) | seq :: _ -> serve_traced ~inputs ~refs seq
  in
  Option.iter
    (fun path ->
      Spans.write path (List.concat_map (fun (_, _, _, s) -> s) all @ Spans.take ()))
    spans_path;
  jobj
    [
      ("passes", jint (List.length all));
      ( "inputs",
        input_rows inputs (fun i _ ->
            let r, body, _ = untraced.(i) in
            report_fields traced.(i)
            @ [
                ( "untraced_s",
                  jfloat (median (List.map (fun (u, _, _, _) -> third u.(i)) all)) );
                ("one_shot", jobj (report_fields r));
                ("body", jstr body);
              ]) );
      ( "metrics",
        jobj (List.map (fun (k, v) -> (k, jfloat v)) (metrics @ serve_metrics)) );
      ("errors", jarr (List.map jstr (List.rev !problems @ serve_errors)));
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: gembench (setup | serve --gemcheck PATH [--seconds S] \
   | trace [--seconds S] [--spans FILE]) < workload"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flags acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        flags ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ ->
        prerr_endline usage;
        exit 2
  in
  match args with
  | mode :: rest -> (
      let flags = flags [] rest in
      let flag k default = Option.value ~default (List.assoc_opt k flags) in
      match
        let inputs, seqs = read_workload () in
        let seconds = float_of_string (flag "seconds" "0") in
        let body =
          match mode with
          | "setup" -> [ ("setup", setup_mode inputs) ]
          | "serve" ->
              let gemcheck = flag "gemcheck" "gemcheck" in
              [ ("serve", serve_mode ~gemcheck ~seconds inputs seqs) ]
          | "trace" ->
              let spans_path = List.assoc_opt "spans" flags in
              [ ("trace", trace_mode ~seconds ~spans_path inputs seqs) ]
          | _ -> fail "%s" usage
        in
        jobj (("ocaml", jstr Sys.ocaml_version) :: body)
      with
      | json -> print_endline json
      | exception e ->
          prerr_endline ("gembench: " ^ Printexc.to_string e);
          exit 2)
  | [] ->
      prerr_endline usage;
      exit 2
