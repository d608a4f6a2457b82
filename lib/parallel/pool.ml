(* A small fixed-size domain pool: [jobs - 1] worker domains plus the
   submitting domain itself, fed from one Mutex/Condition-protected
   queue.  Stdlib only — Domain, Mutex, Condition — no dependency on
   any external scheduler.

   The calling domain participates in draining the queue, so
   [create ~jobs:1] spawns no domains at all and [run_list] degrades
   to plain in-order sequential execution — the zero-overhead baseline
   the benchmarks compare against.

   Memory model: everything a task writes is published to the caller
   by the queue mutex (release on task completion, acquire in the
   barrier), so phase data handed across [run_list] calls needs no
   per-field synchronization. *)

type t = {
  jobs : int;
  m : Mutex.t;
  work_cv : Condition.t;  (* workers: queue non-empty or shutdown *)
  done_cv : Condition.t;  (* coordinator: batch finished *)
  queue : (int * (int -> unit)) Queue.t;
  mutable pending : int;  (* tasks submitted and not yet finished *)
  mutable stop : bool;
  mutable err : (int * exn * Printexc.raw_backtrace) option;
  mutable workers : unit Domain.t list;
}

let record_error p i e bt =
  (* keep the lowest task index so which exception surfaces does not
     depend on domain interleaving when several tasks fail *)
  match p.err with
  | Some (j, _, _) when j <= i -> ()
  | _ -> p.err <- Some (i, e, bt)

(* Run one task outside the lock; queued work after a failure is
   skipped (but still counted down) so a batch with an error drains
   quickly instead of burning the remaining queue. *)
let step p wid =
  match Queue.take_opt p.queue with
  | None -> false
  | Some (i, f) ->
      let cancelled = p.err <> None in
      Mutex.unlock p.m;
      (if not cancelled then
         try f wid
         with e -> (
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock p.m;
           record_error p i e bt;
           Mutex.unlock p.m));
      Mutex.lock p.m;
      p.pending <- p.pending - 1;
      if p.pending = 0 then Condition.broadcast p.done_cv;
      true

let worker p wid =
  Mutex.lock p.m;
  let continue = ref true in
  while !continue do
    if step p wid then ()
    else if p.stop then continue := false
    else Condition.wait p.work_cv p.m
  done;
  Mutex.unlock p.m

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let p =
    {
      jobs;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      stop = false;
      err = None;
      workers = [];
    }
  in
  p.workers <-
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker p (i + 1)));
  p

let jobs p = p.jobs

let run_list p tasks =
  match tasks with
  | [] -> ()
  | _ ->
      Mutex.lock p.m;
      if p.stop then begin
        Mutex.unlock p.m;
        invalid_arg "Pool.run_list: pool is shut down"
      end;
      if p.pending > 0 then begin
        Mutex.unlock p.m;
        invalid_arg "Pool.run_list: a batch is already running"
      end;
      p.err <- None;
      List.iteri (fun i f -> Queue.add (i, f) p.queue) tasks;
      p.pending <- List.length tasks;
      Condition.broadcast p.work_cv;
      (* the caller drains the queue as worker 0, then waits for the
         stragglers running on other domains *)
      while step p 0 do
        ()
      done;
      while p.pending > 0 do
        Condition.wait p.done_cv p.m
      done;
      let err = p.err in
      p.err <- None;
      Mutex.unlock p.m;
      (match err with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())

let run_fun p k f = run_list p (List.init k (fun i wid -> f i wid))

let shutdown p =
  Mutex.lock p.m;
  if not p.stop then begin
    p.stop <- true;
    Condition.broadcast p.work_cv
  end;
  let ws = p.workers in
  p.workers <- [];
  Mutex.unlock p.m;
  List.iter Domain.join ws

let with_pool ~jobs f =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
