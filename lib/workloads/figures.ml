let instance_a =
  {|<data>
  <book><title>X</title><author><name>A</name></author><author><name>B</name></author><publisher><name>W</name></publisher></book>
  <book><title>Y</title><author><name>A</name></author><publisher><name>V</name></publisher></book>
</data>|}

let instance_b =
  {|<data>
  <publisher><name>W</name><book><title>X</title><author><name>A</name></author><author><name>B</name></author></book></publisher>
  <publisher><name>V</name><book><title>Y</title><author><name>A</name></author></book></publisher>
</data>|}

let instance_c =
  {|<data>
  <author><name>A</name><book><title>X</title><publisher><name>W</name></publisher></book><book><title>Y</title><publisher><name>V</name></publisher></book></author>
  <author><name>B</name><book><title>X</title><publisher><name>W</name></publisher></book></author>
</data>|}

let doc_b () = Xml.Doc.of_string instance_b
let doc_c () = Xml.Doc.of_string instance_c

let example_guard = "MORPH author [ name book [ title ] ]"

let widening_guard = "MORPH author [ !title name publisher [ name ] ]"

let example_query =
  "for $a in //author return <row><who>{$a/name/text()}</who><titles>{$a/book/title}</titles></row>"
