//! Values the wire's `i64` fields cannot carry are refused with a fatal
//! fault at the server boundary, never truncated or wrapped into a wrong
//! answer, and the session goes on serving.

use std::sync::Arc;

use hcc_adts::{AccountObject, CounterObject};
use hcc_client::Client;
use hcc_db::Db;
use hcc_server::serve;
use hcc_spec::Rational;
use hcc_wire::msg::{TypeTag, View, WireOp};

/// Two remote credits of `i64::MAX` leave a balance of `2^64 - 2`, which
/// the in-process view reads exactly. The remote read of it fails
/// fatally instead of truncating the numerator (to `-2`), and a balance
/// inside the range still reads on the same session.
#[test]
fn a_balance_beyond_i64_is_refused_not_truncated() {
    let db = Arc::new(Db::in_memory());
    let server = serve(db.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    for _ in 0..2 {
        client.transact(vec![WireOp::Credit { name: "big".into(), amount: i64::MAX }]).unwrap();
    }
    client.transact(vec![WireOp::Credit { name: "small".into(), amount: 5 }]).unwrap();
    let expected = Rational::from_int(i64::MAX) + Rational::from_int(i64::MAX);
    assert_eq!(db.object::<AccountObject>("big").unwrap().committed_balance(), expected);
    assert_eq!(expected.to_string(), "18446744073709551614");

    let err = client.read(None, vec![(TypeTag::Account, "big".into())]).unwrap_err();
    assert!(!err.is_transient(), "{err}");
    assert!(err.to_string().contains("does not fit the wire's i64"), "{err}");

    let (_, views) = client.read(None, vec![(TypeTag::Account, "small".into())]).unwrap();
    assert_eq!(views, vec![View::Balance { num: 5, den: 1 }]);
    server.drain();
}

/// `Inc { delta: i64::MIN }` has no negation to `dec` by. The batch
/// carrying it is refused before any of its ops runs, so neither it nor
/// the op ahead of it touches the counter, and later increments count
/// from the true value instead of from a wrapped one.
#[test]
fn an_inc_by_i64_min_is_refused_before_it_runs() {
    let db = Arc::new(Db::in_memory());
    let server = serve(db.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let inc = |delta| WireOp::Inc { name: "c".into(), delta };

    client.transact(vec![inc(5)]).unwrap();
    let err = client.transact(vec![inc(1), inc(i64::MIN)]).unwrap_err();
    assert!(!err.is_transient(), "{err}");
    assert!(err.to_string().contains("has no negation in i64"), "{err}");
    assert_eq!(db.object::<CounterObject>("c").unwrap().committed_value(), 5);

    client.transact(vec![inc(1)]).unwrap();
    let (_, views) = client.read(None, vec![(TypeTag::Counter, "c".into())]).unwrap();
    assert_eq!(views, vec![View::Count(6)]);
    server.drain();
}
