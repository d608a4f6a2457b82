module Ns = Nodeset.Node_set
module He = Hyperedge

(* The primitive behind Printf's [%.17g], so the bytes match a
   Printf-written file exactly. *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buf x = Buffer.add_string buf (format_float "%.17g" x)

(* A count or a node index, so never negative. *)
let rec add_int buf i =
  if i >= 10 then add_int buf (i / 10);
  Buffer.add_char buf (Char.chr (48 + (i mod 10)))

let add_graph buf g =
  let add = Buffer.add_string buf in
  let first = ref true in
  let member v =
    if !first then first := false else Buffer.add_char buf ',';
    add_int buf v
  in
  (* [key], then the members in increasing order, comma-separated *)
  let add_set key s =
    add key;
    first := true;
    Ns.iter member s
  in
  add "# ";
  add_int buf (Graph.num_nodes g);
  add " relations, ";
  add_int buf (Graph.num_edges g);
  add " edges\n";
  for i = 0 to Graph.num_nodes g - 1 do
    let r = Graph.relation g i in
    add "rel ";
    add r.Graph.name;
    add " card=";
    add_float buf r.Graph.card;
    if not (Ns.is_empty r.Graph.free) then add_set " free=" r.Graph.free;
    add "\n"
  done;
  Array.iter
    (fun (e : He.t) ->
      add_set "edge u=" e.u;
      add_set " v=" e.v;
      if not (Ns.is_empty e.w) then add_set " w=" e.w;
      add " op=";
      add (Relalg.Operator.symbol e.op);
      add " sel=";
      add_float buf e.sel;
      add "\n")
    (Graph.edges g)

let to_string g =
  let buf = Buffer.create 512 in
  add_graph buf g;
  Buffer.contents buf

exception Parse of string

let parse_set s =
  if s = "" then Ns.empty
  else
    List.fold_left
      (fun acc part ->
        match int_of_string_opt (String.trim part) with
        | Some v when v >= 0 && v < Ns.max_nodes -> Ns.add v acc
        | _ -> raise (Parse (Printf.sprintf "bad node index %S" part)))
      Ns.empty
      (String.split_on_char ',' s)

let op_of_symbol s =
  let dependent = String.length s > 4 && String.sub s 0 4 = "dep-" in
  let base = if dependent then String.sub s 4 (String.length s - 4) else s in
  let kind =
    match base with
    | "join" -> Relalg.Operator.Inner
    | "leftouter" -> Relalg.Operator.Left_outer
    | "fullouter" -> Relalg.Operator.Full_outer
    | "semijoin" -> Relalg.Operator.Left_semi
    | "antijoin" -> Relalg.Operator.Left_anti
    | "nestjoin" -> Relalg.Operator.Left_nest
    | other -> raise (Parse (Printf.sprintf "unknown operator %S" other))
  in
  Relalg.Operator.make ~dependent kind

(* split "k=v" fields of a line after the leading keyword *)
let fields rest =
  List.filter_map
    (fun tok ->
      if tok = "" then None
      else
        match String.index_opt tok '=' with
        | Some i ->
            Some
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> Some ("", tok))
    (String.split_on_char ' ' rest)

let of_string src =
  let rels = ref [] and edges = ref [] and nedges = ref 0 in
  try
    List.iteri
      (fun lineno line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else begin
          let fail fmt =
            Printf.ksprintf
              (fun m -> raise (Parse (Printf.sprintf "line %d: %s" (lineno + 1) m)))
              fmt
          in
          match String.index_opt line ' ' with
          | None -> fail "expected 'rel ...' or 'edge ...'"
          | Some sp -> (
              let kw = String.sub line 0 sp in
              let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
              let fs = fields rest in
              let find k = List.assoc_opt k fs in
              match kw with
              | "rel" ->
                  let name =
                    match find "" with
                    | Some n -> n
                    | None -> fail "rel needs a name"
                  in
                  let card =
                    match find "card" with
                    | Some c -> (
                        match float_of_string_opt c with
                        | Some f when Float.is_finite f && f > 0.0 -> f
                        | _ -> fail "bad card %S" c)
                    | None -> 1000.0
                  in
                  let free =
                    match find "free" with
                    | Some s -> parse_set s
                    | None -> Ns.empty
                  in
                  rels := Graph.base_rel ~free ~card name :: !rels
              | "edge" ->
                  let get_set k =
                    match find k with Some s -> parse_set s | None -> Ns.empty
                  in
                  let u = get_set "u" and v = get_set "v" and w = get_set "w" in
                  if Ns.is_empty u || Ns.is_empty v then
                    fail "edge needs non-empty u= and v=";
                  let op =
                    match find "op" with
                    | Some s -> op_of_symbol s
                    | None -> Relalg.Operator.join
                  in
                  let sel =
                    match find "sel" with
                    | Some s -> (
                        match float_of_string_opt s with
                        | Some f -> f
                        | None -> fail "bad sel %S" s)
                    | None -> 1.0
                  in
                  let pred =
                    Relalg.Predicate.eq_cols (Ns.min_elt u) "k" (Ns.min_elt v) "k"
                  in
                  let e = He.make ~w ~op ~pred ~sel ~id:!nedges u v in
                  incr nedges;
                  edges := e :: !edges
              | kw -> fail "unknown keyword %S" kw)
        end)
      (String.split_on_char '\n' src);
    let g =
      Graph.make (Array.of_list (List.rev !rels)) (Array.of_list (List.rev !edges))
    in
    Ok g
  with
  | Parse m -> Error m
  | Invalid_argument m -> Error m

let write_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let read_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> of_string (really_input_string ic (in_channel_length ic)))
