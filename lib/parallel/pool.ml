(* Work pool: a shared FIFO of closures guarded by a mutex, worker domains
   blocking on a condition variable, and per-batch completion signalling.

   Determinism comes from the result protocol, not the schedule: every task
   writes into its own slot of a results array, so whatever interleaving the
   domains produce, the caller reads results back in submission order. *)

type error = { label : string; exn : exn; backtrace : string }

(* Pool telemetry. queued counts batch entries that went through the
   shared queue (the jobs = 1 fast path bypasses it); run counts every
   executed batch task wherever it ran; stolen counts the subset the
   submitting domain drained itself in [help_drain]. *)
let c_queued = Vp_observe.Stats.counter "pool.tasks_queued"

let c_run = Vp_observe.Stats.counter "pool.tasks_run"

let c_stolen = Vp_observe.Stats.counter "pool.tasks_stolen"

(* Wrapped tasks store their own result (and capture their own exceptions);
   Raw tasks run unprotected in workers — the test hook for simulating a
   worker domain dying. *)
type entry = Task of (unit -> unit) | Raw of (unit -> unit)

type t = {
  jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled on enqueue and on shutdown *)
  queue : entry Queue.t;
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () =
  match Sys.getenv_opt "VP_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Pop one task, or block until one arrives / the pool shuts down. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.shutting_down do
    Condition.wait t.nonempty t.mutex
  done;
  match Queue.take_opt t.queue with
  | None ->
      (* Shutting down with an empty queue. *)
      Mutex.unlock t.mutex
  | Some (Task task) ->
      Mutex.unlock t.mutex;
      (* Wrapped tasks capture their own exceptions; the backstop keeps a
         stray raise from silently killing the worker and starving the
         pool. *)
      (try task () with _ -> ());
      worker_loop t
  | Some (Raw task) ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t

(* Spawning more domains than cores is counterproductive in OCaml 5: every
   minor collection is a stop-the-world sync of all running domains, so
   oversubscription turns each GC into a round of context switches. [jobs]
   is treated as an upper bound; the pool never runs more domains (workers
   + the helping caller) than the hardware supports. *)
let effective_jobs ~jobs =
  min (max 1 jobs) (max 1 (Domain.recommended_domain_count ()))

let jobs t = t.jobs

let domain_count t = List.length t.workers + 1

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  (* Join every worker before re-raising anything: a domain that died must
     not leave its siblings running (and unjoinable) behind it. *)
  let first_exn = ref None in
  List.iter
    (fun d ->
      match Domain.join d with
      | () -> ()
      | exception e -> (
          match !first_exn with
          | None -> first_exn := Some (e, Printexc.get_raw_backtrace ())
          | Some _ -> ()))
    workers;
  match !first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let create ~jobs () =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      shutting_down = false;
      workers = [];
    }
  in
  (* A spawn that fails (the runtime's domain limit) must not leave the
     workers already spawned blocked forever. *)
  (try
     for _ = 2 to effective_jobs ~jobs do
       t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     (try shutdown t with _ -> ());
     Printexc.raise_with_backtrace e bt);
  t

(* Not [Fun.protect]: a worker that died re-raises from [shutdown], and
   that exception should arrive bare, not wrapped in [Finally_raised].
   The body's own exception still wins over shutdown's. *)
let with_pool ~jobs f =
  let t = create ~jobs () in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try shutdown t with _ -> ());
      Printexc.raise_with_backtrace e bt

let inject_raw t task =
  Mutex.lock t.mutex;
  Queue.add (Raw task) t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* The caller drains the queue alongside the workers, then waits for the
   stragglers the workers still hold. Raw tasks are contained here — only
   worker domains may be killed by the test hook, never the caller. *)
let rec help_drain t =
  Mutex.lock t.mutex;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.mutex
  | Some (Task task) ->
      Mutex.unlock t.mutex;
      if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_stolen;
      (try task () with _ -> ());
      help_drain t
  | Some (Raw task) ->
      Mutex.unlock t.mutex;
      (try task () with _ -> ());
      help_drain t

(* Shared batch executor. Each labelled thunk runs under the submitter's
   ambient budget, fault plan AND trace scope — all three are per-domain
   ambient state, so each must be captured at fan-out and re-installed
   inside the worker domain, or work fanned out loses its deadline and
   spans recorded in workers become orphan roots instead of children of
   the submitting span. *)
let run_raw t labelled =
  let n = Array.length labelled in
  let results = Array.make n None in
  let budget = Vp_robust.Budget.current () in
  let fault = Vp_robust.Fault.current () in
  let tscope = Vp_observe.Trace.scope () in
  let exec i (label, f) =
    let body () =
      Vp_observe.Trace.with_scope tscope (fun () ->
          Vp_observe.Trace.with_span
            ~name:(if label = "" then "pool:task" else "pool:" ^ label)
            (fun () ->
              Vp_robust.Budget.with_current budget (fun () ->
                  Vp_robust.Fault.with_current fault (fun () ->
                      if label <> "" && Vp_robust.Fault.enabled fault then
                        Vp_robust.Fault.apply fault
                          ~site:("pool:" ^ label) ~index:i;
                      f ()))))
    in
    if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_run;
    results.(i) <-
      Some
        (match body () with
        | v -> Ok v
        | exception e -> Error (label, e, Printexc.get_raw_backtrace ()))
  in
  if n = 0 then [||]
  else begin
    if t.jobs = 1 then
      (* Strictly sequential in the calling domain: no queue, no domains.
         Every task still runs (and captures its own failure), so
         [run_results] behaves identically at any job count. *)
      Array.iteri exec labelled
    else begin
      let batch_mutex = Mutex.create () in
      let batch_done = Condition.create () in
      let pending = ref n in
      let wrap i lf () =
        exec i lf;
        Mutex.lock batch_mutex;
        decr pending;
        if !pending = 0 then Condition.signal batch_done;
        Mutex.unlock batch_mutex
      in
      if Vp_observe.Switch.stats_on () then Vp_observe.Stats.add c_queued n;
      Mutex.lock t.mutex;
      Array.iteri (fun i lf -> Queue.add (Task (wrap i lf)) t.queue) labelled;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex;
      help_drain t;
      Mutex.lock batch_mutex;
      while !pending > 0 do
        Condition.wait batch_done batch_mutex
      done;
      Mutex.unlock batch_mutex
    end;
    Array.map (function Some r -> r | None -> assert false) results
  end

let run t thunks =
  let labelled = Array.of_list (List.map (fun f -> ("", f)) thunks) in
  (* Re-raise the earliest failure in submission order, if any. *)
  run_raw t labelled |> Array.to_list
  |> List.map (function
       | Ok v -> v
       | Error (_, e, bt) -> Printexc.raise_with_backtrace e bt)

let run_results t tasks =
  run_raw t (Array.of_list tasks)
  |> Array.to_list
  |> List.map (function
       | Ok v -> Ok v
       | Error (label, exn, bt) ->
           Error { label; exn; backtrace = Printexc.raw_backtrace_to_string bt })

let map t f xs = run t (List.map (fun x () -> f x) xs)

let run_list ?jobs thunks =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  with_pool ~jobs (fun t -> run t thunks)
