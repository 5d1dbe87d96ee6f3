//! Byte-identity pins for the JSON writer: every shape the derive macros
//! emit and every primitive rule (float `.0`, NaN → `null`, escapes, sorted
//! `HashMap` keys, empty containers in pretty mode), in compact and pretty
//! form, plus a parse-and-re-render check through `Value` and a check that
//! no truncated document parses.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use serde::Serialize;
use serde_json::{from_str, to_string, to_string_pretty, Value};

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(u32);

#[derive(Serialize)]
struct Pair(i32, String);

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
enum Shape {
    Dot,
    Line(u8, bool),
    Wrapped(i64),
    Box { w: f64, h: Option<u8> },
    Nothing(),
}

#[derive(Serialize)]
struct Doc {
    id: u64,
    name: String,
    tag: Option<String>,
    none: Option<u8>,
    empty: Vec<u8>,
    nested: Vec<Vec<u8>>,
    map: HashMap<String, i32>,
    shapes: Vec<Shape>,
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    hollow: Empty,
}

fn doc() -> Doc {
    let mut map = HashMap::new();
    for (k, v) in [("zeta", 1), ("alpha", -2), ("mid", 3), ("Beta", 4)] {
        map.insert(k.to_string(), v);
    }
    Doc {
        id: 7,
        name: "q\"uo\\te\u{1f}é".to_string(),
        tag: Some("t".to_string()),
        none: None,
        empty: vec![],
        nested: vec![vec![], vec![1, 2], vec![]],
        map,
        shapes: vec![
            Shape::Dot,
            Shape::Line(3, true),
            Shape::Wrapped(-9),
            Shape::Box { w: 1.0, h: None },
            Shape::Box { w: 0.5, h: Some(2) },
            Shape::Nothing(),
        ],
        unit: Unit,
        newtype: Newtype(42),
        pair: Pair(-1, "\n\r\t".to_string()),
        hollow: Empty {},
    }
}

/// `(compact, pretty)` of `x`, after checking that both re-render
/// byte-identically once parsed back into a `Value`.
fn render<T: Serialize + ?Sized>(x: &T) -> (String, String) {
    let compact = to_string(x).unwrap();
    let pretty = to_string_pretty(x).unwrap();
    let back: Value = from_str(&compact).unwrap();
    assert_eq!(to_string(&back).unwrap(), compact, "compact re-render");
    assert_eq!(to_string_pretty(&back).unwrap(), pretty, "pretty re-render");
    let back: Value = from_str(&pretty).unwrap();
    assert_eq!(
        to_string(&back).unwrap(),
        compact,
        "pretty parses to the same tree"
    );
    (compact, pretty)
}

fn check<T: Serialize + ?Sized>(x: &T, compact: &str, pretty: &str) {
    let (c, p) = render(x);
    assert_eq!(c, compact);
    assert_eq!(p, pretty);
}

#[test]
fn primitives() {
    check(&0u8, "0", "0");
    check(&u64::MAX, "18446744073709551615", "18446744073709551615");
    check(&-5i32, "-5", "-5");
    check(&i64::MIN, "-9223372036854775808", "-9223372036854775808");
    check(&7i16, "7", "7");
    check(&true, "true", "true");
    check(&1.0f64, "1.0", "1.0");
    check(&0.5f64, "0.5", "0.5");
    check(&-0.0f64, "-0.0", "-0.0");
    check(&-2.25f64, "-2.25", "-2.25");
    check(
        &1e21f64,
        "1000000000000000000000.0",
        "1000000000000000000000.0",
    );
    check(&1.5e-7f64, "0.00000015", "0.00000015");
    check(&0.1f32, "0.10000000149011612", "0.10000000149011612");
    check(&'x', "\"x\"", "\"x\"");
    check("plain", "\"plain\"", "\"plain\"");
}

#[test]
fn non_finite_floats_render_null() {
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    assert_eq!(
        to_string_pretty(&vec![f64::NEG_INFINITY]).unwrap(),
        "[\n  null\n]"
    );
}

#[test]
fn string_escapes() {
    check(
        "a\"b\\c\u{1f}d\u{0}e\u{7f}",
        "\"a\\\"b\\\\c\\u001fd\\u0000e\u{7f}\"",
        "\"a\\\"b\\\\c\\u001fd\\u0000e\u{7f}\"",
    );
    check(
        "\n\r\t\u{8}\u{c}",
        "\"\\n\\r\\t\\u0008\\u000c\"",
        "\"\\n\\r\\t\\u0008\\u000c\"",
    );
    check("héllo → 🙂", "\"héllo → 🙂\"", "\"héllo → 🙂\"");
    check(&"/".to_string(), "\"/\"", "\"/\"");
}

#[test]
fn derive_shapes() {
    check(&Unit, "null", "null");
    check(&Newtype(5), "5", "5");
    check(&Pair(-3, "p".into()), "[-3,\"p\"]", "[\n  -3,\n  \"p\"\n]");
    check(&Empty {}, "{}", "{}");
    check(&Shape::Dot, "\"Dot\"", "\"Dot\"");
    check(
        &Shape::Line(1, false),
        "{\"Line\":[1,false]}",
        "{\n  \"Line\": [\n    1,\n    false\n  ]\n}",
    );
    check(
        &Shape::Wrapped(-4),
        "{\"Wrapped\":-4}",
        "{\n  \"Wrapped\": -4\n}",
    );
    check(
        &Shape::Box { w: 2.0, h: Some(1) },
        "{\"Box\":{\"w\":2.0,\"h\":1}}",
        "{\n  \"Box\": {\n    \"w\": 2.0,\n    \"h\": 1\n  }\n}",
    );
    check(
        &Shape::Nothing(),
        "{\"Nothing\":[]}",
        "{\n  \"Nothing\": []\n}",
    );
}

#[test]
fn containers() {
    check(&Vec::<u8>::new(), "[]", "[]");
    check(&vec![Vec::<u8>::new()], "[[]]", "[\n  []\n]");
    check(&vec![Some(1u8), None], "[1,null]", "[\n  1,\n  null\n]");
    check(&[1u8, 2, 3], "[1,2,3]", "[\n  1,\n  2,\n  3\n]");
    check(&[0u8; 0][..], "[]", "[]");
    check(&VecDeque::from(vec![-1i8]), "[-1]", "[\n  -1\n]");
    check(&(1u8,), "[1]", "[\n  1\n]");
    check(
        &(1u8, "a", 0.5f64, false),
        "[1,\"a\",0.5,false]",
        "[\n  1,\n  \"a\",\n  0.5,\n  false\n]",
    );
    check(
        &Duration::new(3, 7),
        "{\"secs\":3,\"nanos\":7}",
        "{\n  \"secs\": 3,\n  \"nanos\": 7\n}",
    );
    check(&HashMap::<String, u8>::new(), "{}", "{}");
    let mut bt = BTreeMap::new();
    bt.insert("b".to_string(), vec![1u8]);
    bt.insert("a\"".to_string(), vec![]);
    check(
        &bt,
        "{\"a\\\"\":[],\"b\":[1]}",
        "{\n  \"a\\\"\": [],\n  \"b\": [\n    1\n  ]\n}",
    );
}

#[test]
fn hashmap_keys_render_sorted() {
    let mut m = HashMap::new();
    for k in ["z", "a", "m", "B", "é", ""] {
        m.insert(k.to_string(), k.len());
    }
    check(
        &m,
        "{\"\":0,\"B\":1,\"a\":1,\"m\":1,\"z\":1,\"é\":2}",
        "{\n  \"\": 0,\n  \"B\": 1,\n  \"a\": 1,\n  \"m\": 1,\n  \"z\": 1,\n  \"é\": 2\n}",
    );
}

const DOC_COMPACT: &str = concat!(
    r#"{"id":7,"name":"q\"uo\\te\u001fé","tag":"t","none":null,"empty":[],"#,
    r#""nested":[[],[1,2],[]],"map":{"Beta":4,"alpha":-2,"mid":3,"zeta":1},"#,
    r#""shapes":["Dot",{"Line":[3,true]},{"Wrapped":-9},{"Box":{"w":1.0,"h":null}},"#,
    r#"{"Box":{"w":0.5,"h":2}},{"Nothing":[]}],"unit":null,"newtype":42,"#,
    r#""pair":[-1,"\n\r\t"],"hollow":{}}"#,
);

const DOC_PRETTY: &str = r#"{
  "id": 7,
  "name": "q\"uo\\te\u001fé",
  "tag": "t",
  "none": null,
  "empty": [],
  "nested": [
    [],
    [
      1,
      2
    ],
    []
  ],
  "map": {
    "Beta": 4,
    "alpha": -2,
    "mid": 3,
    "zeta": 1
  },
  "shapes": [
    "Dot",
    {
      "Line": [
        3,
        true
      ]
    },
    {
      "Wrapped": -9
    },
    {
      "Box": {
        "w": 1.0,
        "h": null
      }
    },
    {
      "Box": {
        "w": 0.5,
        "h": 2
      }
    },
    {
      "Nothing": []
    }
  ],
  "unit": null,
  "newtype": 42,
  "pair": [
    -1,
    "\n\r\t"
  ],
  "hollow": {}
}"#;

#[test]
fn nested_document() {
    check(&doc(), DOC_COMPACT, DOC_PRETTY);
}

#[test]
fn every_strict_prefix_of_a_document_is_an_error() {
    for end in (0..DOC_COMPACT.len()).filter(|&i| DOC_COMPACT.is_char_boundary(i)) {
        assert!(
            from_str(&DOC_COMPACT[..end]).is_err(),
            "prefix of {end} bytes parsed"
        );
    }
}

#[test]
fn hand_built_values() {
    let v = Value::Map(vec![
        ("k".into(), Value::Seq(vec![])),
        ("m".into(), Value::Map(vec![])),
        ("f".into(), Value::F64(3.0)),
        ("n".into(), Value::I64(-1)),
        ("u".into(), Value::U64(1)),
        (
            "s".into(),
            Value::Seq(vec![
                Value::Null,
                Value::Bool(false),
                Value::Str("x".into()),
            ]),
        ),
    ]);
    check(
        &v,
        r#"{"k":[],"m":{},"f":3.0,"n":-1,"u":1,"s":[null,false,"x"]}"#,
        "{\n  \"k\": [],\n  \"m\": {},\n  \"f\": 3.0,\n  \"n\": -1,\n  \"u\": 1,\n  \"s\": [\n    null,\n    false,\n    \"x\"\n  ]\n}",
    );
    // A map's keys keep insertion order; only `HashMap` sorts.
    check(
        &Value::Map(vec![("b".into(), Value::Null), ("a".into(), Value::Null)]),
        r#"{"b":null,"a":null}"#,
        "{\n  \"b\": null,\n  \"a\": null\n}",
    );
}
