type value = Sink.value = Int of int | Float of float | Str of string | Bool of bool

type ctx = {
  sink : Sink.t;
  epoch : float;
  mutable recorded : Sink.span list;  (* completion order, newest first *)
  mutable depth : int;
}

type t = {
  ctx : ctx;
  name : string;
  span_depth : int;
  t0 : float;
  minor0 : float;
  major0 : float;
  mutable attrs : (string * value) list;  (* newest first *)
}

let now () = Unix.gettimeofday ()

let create ?(sink = Sink.Null) () =
  { sink; epoch = now (); recorded = []; depth = 0 }

let elapsed ctx = now () -. ctx.epoch

let spans ctx = List.rev ctx.recorded

type mark = Sink.span list

let mark ctx = ctx.recorded

(* [recorded] only ever grows at its head, so the spans completed
   since [m] are the prefix in front of the list [m] physically is;
   walking it newest-first conses them back into completion order. *)
let spans_since ctx m =
  let rec take acc l =
    if l == m then acc
    else match l with [] -> acc | s :: rest -> take (s :: acc) rest
  in
  take [] ctx.recorded

let set sp k v = sp.attrs <- (k, v) :: sp.attrs

let set_opt sp k v = match sp with None -> () | Some sp -> set sp k v

let close sp =
  let ctx = sp.ctx in
  ctx.depth <- ctx.depth - 1;
  let t1 = now () in
  let span =
    {
      Sink.name = sp.name;
      depth = sp.span_depth;
      start_s = sp.t0 -. ctx.epoch;
      dur_s = t1 -. sp.t0;
      (* Gc.minor_words () tracks the allocation pointer exactly;
         quick_stat's minor_words only advances at collections. *)
      minor_words = Gc.minor_words () -. sp.minor0;
      major_words = (Gc.quick_stat ()).Gc.major_words -. sp.major0;
      attrs = List.rev sp.attrs;
    }
  in
  ctx.recorded <- span :: ctx.recorded;
  Sink.emit ctx.sink span

let with_ ctx ?(attrs = []) name f =
  let sp =
    {
      ctx;
      name;
      span_depth = ctx.depth;
      t0 = now ();
      minor0 = Gc.minor_words ();
      major0 = (Gc.quick_stat ()).Gc.major_words;
      attrs = List.rev attrs;
    }
  in
  ctx.depth <- ctx.depth + 1;
  match f sp with
  | r ->
      close sp;
      r
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      set sp "raised" (Str (Printexc.to_string exn));
      close sp;
      Printexc.raise_with_backtrace exn bt

let with_opt ctx ?attrs name f =
  match ctx with
  | None -> f None
  | Some ctx -> with_ ctx ?attrs name (fun sp -> f (Some sp))
