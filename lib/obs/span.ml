type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  name : string;
  depth : int;
  start_s : float;
  dur_s : float;
  minor_words : float;
  major_words : float;
  attrs : (string * value) list;
}

type ctx = {
  epoch : float;
  mutable recorded : span list;  (* completion order, newest first *)
  mutable open_depth : int;  (* spans currently open *)
}

type t = {
  ctx : ctx;
  label : string;
  span_depth : int;
  t0 : float;
  minor0 : int;
  major0 : float;
  mutable rev_attrs : (string * value) list;  (* newest first *)
}

let now () = Unix.gettimeofday ()

(* [Gc.minor_words] returns its float unboxed; as an int it stays
   unboxed wherever it is kept. *)
let minor_words () = int_of_float (Gc.minor_words ())

let create () = { epoch = now (); recorded = []; open_depth = 0 }

let elapsed ctx = now () -. ctx.epoch

let spans ctx = List.rev ctx.recorded

type mark = span list

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

let set sp k v = sp.rev_attrs <- (k, v) :: sp.rev_attrs

let set_opt sp k v = match sp with None -> () | Some sp -> set sp k v

let close sp =
  let ctx = sp.ctx in
  ctx.open_depth <- ctx.open_depth - 1;
  let t1 = now () in
  let minor1 = minor_words () in
  let _, _, major1 = Gc.counters () in
  let span =
    {
      name = sp.label;
      depth = sp.span_depth;
      start_s = sp.t0 -. ctx.epoch;
      dur_s = t1 -. sp.t0;
      minor_words = float_of_int (minor1 - sp.minor0);
      major_words = major1 -. sp.major0;
      attrs = List.rev sp.rev_attrs;
    }
  in
  ctx.recorded <- span :: ctx.recorded

(* Both readings are the calling domain's own counts, exact between
   collections.  Minor words come from [Gc.minor_words]: on OCaml 5.1
   the minor field of [Gc.counters] adds only an eighth of the words
   allocated since the last minor collection.  Major words come from
   [Gc.counters], including what was allocated directly in the major
   heap since the last slice.  A runtime-wide statistics snapshot's
   words only advance at collections, and taking one costs ~60x
   more. *)
let with_ ctx ?(attrs = []) name f =
  let minor0 = minor_words () in
  let _, _, major0 = Gc.counters () in
  let sp =
    {
      ctx;
      label = name;
      span_depth = ctx.open_depth;
      t0 = now ();
      minor0;
      major0;
      rev_attrs = List.rev attrs;
    }
  in
  ctx.open_depth <- ctx.open_depth + 1;
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

(* ---------- export ---------- *)

let value_to_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Str s -> Json_util.quote s
  | Bool b -> if b then "true" else "false"

(* Attrs render sorted by key so any two renderings of the same span
   are byte-identical regardless of the order attrs were set. *)
let attrs_to_json attrs =
  let attrs =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) attrs
  in
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%s: %s" (Json_util.quote k) (value_to_json v))
         attrs)
  ^ "}"

let span_to_json s =
  Printf.sprintf
    "{\"name\": %s, \"depth\": %d, \"start_ms\": %.4f, \"ms\": %.4f, \
     \"minor_words\": %.0f, \"major_words\": %.0f, \"attrs\": %s}"
    (Json_util.quote s.name) s.depth (s.start_s *. 1e3) (s.dur_s *. 1e3)
    s.minor_words s.major_words (attrs_to_json s.attrs)

(* Chrome trace-event format: "X" (complete) events with microsecond
   timestamps; nesting is reconstructed by the viewer from ts/dur. *)
let chrome_event s =
  let args =
    ("minor_words", Float s.minor_words)
    :: ("major_words", Float s.major_words)
    :: s.attrs
  in
  Printf.sprintf
    "{\"name\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \
     \"tid\": 1, \"args\": %s}"
    (Json_util.quote s.name) (s.start_s *. 1e6) (s.dur_s *. 1e6)
    (attrs_to_json args)

let chrome_trace_json spans =
  "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
  ^ String.concat ",\n" (List.map chrome_event spans)
  ^ "\n]}\n"

let write_chrome path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace_json spans))
