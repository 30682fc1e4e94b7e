//! Mask regression fixture: every line here looks like a violation but
//! sits in a string, a macro template or test code. The analyzer must
//! report nothing for this file — it lives in `sim`, the crate with the
//! strictest rule set, precisely so any masking regression turns the
//! golden test red.

fn strings() -> &'static str {
    "Instant::now() thread::spawn(x) .unwrap() unsafe CONTROL_VCI_BASE"
}

fn raw_strings() -> &'static str {
    r#"SystemTime thread::sleep Vci(0x7F00) HashMap HashSet"#
}

fn char_then_string() -> u8 {
    let c = '"';
    let s = "Instant::now() .to_vec()";
    (c as u8) + (s.len() as u8)
}

macro_rules! must_take {
    ($e:expr) => {
        // Expansion context is unknowable to a lexical pass; macro
        // templates are exempt from the panic and determinism rules.
        $e.unwrap()
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn host_clock_and_unwrap_are_fine_in_tests() {
        let _t = std::time::Instant::now();
        let _ = Some(1).unwrap();
        let _ = std::collections::HashMap::<u8, u8>::new();
    }
}
