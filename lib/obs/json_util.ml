(* JSON string escaping.  OCaml's [%S] is close to JSON but not JSON:
   control characters come out as decimal escapes ([\027]) that no
   JSON parser accepts, and it never emits [\u] forms.  Every trace and
   snapshot emitter in this library quotes strings through here so a
   span or metric name containing quotes, backslashes or control
   characters cannot produce an unparseable trace. *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape s =
  (* fast path: most names are plain identifiers *)
  let rec clean i =
    i >= String.length s || ((not (needs_escape s.[i])) && clean (i + 1))
  in
  if clean 0 then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let quote s = "\"" ^ escape s ^ "\""
