module Ns = Nodeset.Node_set

(* DOT double-quoted strings: backslash and double quote must be
   escaped, and raw line breaks must become the \n escape (Graphviz
   renders it as a centered linebreak; a literal newline would
   terminate the attribute).  Relation names come from user SQL, so
   every label interpolation below — and in Plan_dot — goes through
   this escaper. *)
let escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot ?(name = "query") g =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "graph %s {\n" name;
  pr "  node [shape=ellipse];\n";
  for i = 0 to Graph.num_nodes g - 1 do
    pr "  R%d [label=\"%s\"];\n" i (escape_label (Graph.relation g i).Graph.name)
  done;
  Array.iter
    (fun (e : Hyperedge.t) ->
      if Hyperedge.is_simple e then
        pr "  R%d -- R%d [label=\"%s\"];\n" (Ns.min_elt e.u) (Ns.min_elt e.v)
          (escape_label (Relalg.Operator.symbol e.op))
      else begin
        pr "  he%d [shape=box, label=\"%s\", width=0.2, height=0.2];\n" e.id
          (escape_label (Relalg.Operator.symbol e.op));
        Ns.iter (fun v -> pr "  R%d -- he%d [color=blue];\n" v e.id) e.u;
        Ns.iter (fun v -> pr "  he%d -- R%d [color=red];\n" e.id v) e.v;
        Ns.iter (fun v -> pr "  he%d -- R%d [style=dashed];\n" e.id v) e.w
      end)
    (Graph.edges g);
  pr "}\n";
  Buffer.contents buf

(* Temp-file + rename so a crash mid-write can never leave a
   truncated document at the destination (Sys.rename is atomic within
   a filesystem). *)
let write_atomically path body =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match body oc with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  close_out oc;
  Sys.rename tmp path

let write_file path g = write_atomically path (fun oc -> output_string oc (to_dot g))
