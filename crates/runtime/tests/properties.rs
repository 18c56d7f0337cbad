//! Property-based tests for the runtime wire formats.
//!
//! Cases come from the in-repo `proptest` shim (`crates/ptest`): seeded by the
//! test's name, so every run generates the same ones.

mod full {
    use proptest::prelude::*;

    use cronus_devices::npu::{AluOp, NpuBuffer, VtaInsn, VtaProgram};
    use cronus_runtime::vta::{decode_program, encode_program};
    use cronus_runtime::wire::{Reader, Writer};

    fn arb_insn() -> impl Strategy<Value = VtaInsn> {
        prop_oneof![
            (
                any::<u64>(),
                any::<u64>(),
                1usize..64,
                1usize..64,
                1usize..64
            )
                .prop_map(|(src, offset, rows, cols, stride)| VtaInsn::LoadInp {
                    src: NpuBuffer::from_raw(src),
                    offset,
                    rows,
                    cols,
                    stride,
                }),
            (
                any::<u64>(),
                any::<u64>(),
                1usize..64,
                1usize..64,
                1usize..64
            )
                .prop_map(|(src, offset, rows, cols, stride)| VtaInsn::LoadWgt {
                    src: NpuBuffer::from_raw(src),
                    offset,
                    rows,
                    cols,
                    stride,
                }),
            (1usize..64, 1usize..64).prop_map(|(rows, cols)| VtaInsn::ResetAcc { rows, cols }),
            Just(VtaInsn::Gemm),
            any::<i32>().prop_map(|v| VtaInsn::Alu(AluOp::AddImm(v))),
            any::<i32>().prop_map(|v| VtaInsn::Alu(AluOp::MaxImm(v))),
            any::<i32>().prop_map(|v| VtaInsn::Alu(AluOp::MinImm(v))),
            (0u8..31).prop_map(|v| VtaInsn::Alu(AluOp::ShrImm(v))),
            (any::<u64>(), any::<u64>(), 1usize..64).prop_map(|(dst, offset, stride)| {
                VtaInsn::StoreAcc {
                    dst: NpuBuffer::from_raw(dst),
                    offset,
                    stride,
                }
            }),
        ]
    }

    proptest! {
        /// Arbitrary VTA programs survive the wire format.
        #[test]
        fn vta_program_roundtrip(insns in proptest::collection::vec(arb_insn(), 0..32)) {
            let mut prog = VtaProgram::new();
            for i in insns {
                prog.push(i);
            }
            let decoded = decode_program(&encode_program(&prog)).expect("well-formed");
            prop_assert_eq!(decoded, prog);
        }

        /// Truncating an encoded program at any point yields an error, never a
        /// panic or a silently-shorter program that decodes to the full length.
        #[test]
        fn vta_truncation_is_detected(insns in proptest::collection::vec(arb_insn(), 1..16), cut in any::<usize>()) {
            let mut prog = VtaProgram::new();
            for i in insns {
                prog.push(i);
            }
            let encoded = encode_program(&prog);
            let cut = cut % encoded.len();
            prop_assume!(cut < encoded.len());
            // Either an explicit error, or (when the cut lands on an instruction
            // boundary relative to the declared count) never a wrong-length ok.
            if let Ok(decoded) = decode_program(&encoded[..cut]) {
                prop_assert!(decoded.insns.len() < prog.insns.len());
                // Count header says more instructions than present => must error.
                prop_assert!(cut >= 4, "the count header itself was truncated");
            }
        }

        /// The scalar wire codec round-trips arbitrary interleavings.
        #[test]
        fn wire_scalar_roundtrip(
            u in any::<u64>(),
            i in any::<i64>(),
            f in any::<f32>(),
            d in any::<f64>(),
            b in any::<u8>(),
            s in "[ -~]{0,64}",
            raw in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let mut w = Writer::new();
            w.u64(u).i64(i).f32(f).f64(d).u8(b).str(&s).bytes(&raw);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.u64().expect("u64"), u);
            prop_assert_eq!(r.i64().expect("i64"), i);
            let got_f = r.f32().expect("f32");
            prop_assert!(got_f == f || (got_f.is_nan() && f.is_nan()));
            let got_d = r.f64().expect("f64");
            prop_assert!(got_d == d || (got_d.is_nan() && d.is_nan()));
            prop_assert_eq!(r.u8().expect("u8"), b);
            prop_assert_eq!(r.str().expect("str"), s);
            prop_assert_eq!(r.bytes().expect("bytes"), raw);
            prop_assert!(r.is_done());
        }
    }
}
