//! Plan-shape pin: the `{:?}` rendering of every query plan hashes to a
//! committed constant at six parallelism settings.
//!
//! Plans are data. Every calibrated profile, every live result and every
//! figure is a pure function of `plans::plan(name, par)`, and
//! `reference_validation` compares only query results, so a plan that
//! computes the same rows through a different DAG (a stage more, a task
//! count or exchange key changed, an aggregate reordered) would pass it
//! while moving every cost. The constants were recorded from the tree in
//! which every plan wrote out the final half of each two-phase aggregate
//! and every consumer's task count by hand. A deliberate plan change
//! re-records the constants it moves (the failure message prints the new
//! table) and says why in CHANGES.md.

use cackle_tpch::plans::{self, Par};

/// The settings the plans are built at: `Par::for_scale` at SF 0.01, 10
/// and 100, the root tests' live fixture, and the benchmark's two live
/// shapes.
fn pars() -> [Par; 6] {
    let p = |fact, mid, join| Par { fact, mid, join };
    [
        Par::for_scale(0.01),
        Par::for_scale(10.0),
        Par::for_scale(100.0),
        p(3, 2, 2),
        p(4, 2, 2),
        p(16, 8, 8),
    ]
}

/// FNV-1a over the plan's `{:?}`.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One row per query, one hash per [`pars`] entry.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 6]); 25] = [
    ("q01", [0x8561627f11678aea, 0x6c4f9ab24b27d1b7, 0x479f9d9c023b9d74, 0x350b45da7fdeb498, 0x0071006325c11b39, 0x416357110f149168]),
    ("q02", [0xb76eb1a5e361236a, 0x5d7d11d139d5ff53, 0xf55dfb1253ab4c32, 0x8b32f48eeba5d3c9, 0x8b32f48eeba5d3c9, 0x3340b3435af74953]),
    ("q03", [0xf384b43a0fac5af7, 0x36e07391974315a4, 0x096756e660512559, 0x65d55fda2c403172, 0xed961c1cdfede317, 0x2f15b009ef068290]),
    ("q04", [0xfe851d4705564f85, 0xea3fb566badc3135, 0x73df2e9e4dfd3160, 0x7b3e00f3963a48a7, 0xbbf1820082b8fbca, 0xb2b479e8873b7ff5]),
    ("q05", [0x607c9abbab8a5441, 0x55a13b0c39100c93, 0xe46695a02bb5132a, 0x9f61f78579747d22, 0x82765fe97db40777, 0xf3a50899765bf7d8]),
    ("q06", [0xf3d9898de8afb574, 0xa8428ee251e099bf, 0xadd7eaf1f174376a, 0x71f1d1310598bf6e, 0xb1b518df004bbf49, 0xc178de3814d7d932]),
    ("q07", [0x5f224b141504dbd8, 0x5ffeb89724ae1945, 0xc72669facb3bea3e, 0x2bbd4c18439e1fe2, 0xff393866818a2255, 0x0129e66ea3a13e4e]),
    ("q08", [0x6a2e8c6390db4d1d, 0x1e1e7c80b0f169a2, 0x340a8a7e86d3b807, 0x3e574214b38211a3, 0x24fc018f1bafc7f2, 0x8f48ba9bfac0fe71]),
    ("q09", [0x8b03abe59bccfc1b, 0xcba2059d87e930da, 0x9c9346726f02f441, 0x4a7338d6a16ef745, 0xbd1ba3444682b108, 0x80ee1b44d9671dc3]),
    ("q10", [0x325dc9a31de044ed, 0x2c35260b17cfd2ca, 0xa3f03723608f57c5, 0x7c6eae61e0367649, 0x6778ae6f655f522c, 0x46f511e843612d33]),
    ("q11", [0xc82de340589dec21, 0xdb305e263d4c1cb4, 0xa466a34cdde6154d, 0x5410df7f7baaec5c, 0x5410df7f7baaec5c, 0x21049b53b2dab536]),
    ("q12", [0x4db4f2b96bc8248b, 0xb4af11ab30e8f83d, 0x5b7a41766f5d60d6, 0xaa12d36bda197343, 0xf50242eeb5aa31de, 0xae096f2dbc398d33]),
    ("q13", [0xfb7dd190b021c176, 0x5191c54611df593a, 0xecf1012637268001, 0xb49e649f21bddb3b, 0xb49e649f21bddb3b, 0xa974ff837d06a52d]),
    ("q14", [0x6b9b03baa4113986, 0xde91552c7637efee, 0x8de1052eb3375a0f, 0xb115210738c6acaa, 0x6d91fb3aa4e20cbd, 0x4820ddabcf249610]),
    ("q15", [0x23104f257c72f1d5, 0x2a4415db0f8bd86a, 0x178b7c51a2b12fe9, 0x4ae1e25045a84909, 0x843bfb8a2e2ddd02, 0x3d016546980f37e1]),
    ("q16", [0xda8f72c7e6c14ff1, 0xf0deffa66e0e446f, 0x2d905247b7c81ef2, 0x517fea8f281a8794, 0x517fea8f281a8794, 0x6f532da90d283f8e]),
    ("q17", [0x8b5135e675ce746b, 0xf39f7ec17145bd0d, 0x384724fa6e026e30, 0xa3a7c331f5cc81cd, 0x78947df744fb43f2, 0x0dc13c153822d93f]),
    ("q18", [0x76072709b3d5a115, 0x3f8684918febb1d0, 0xcdc3886742f7582f, 0x467dd3738a90bfd7, 0x593854cb25dad218, 0xca3077f3649614df]),
    ("q19", [0xfe9be08057b5ce08, 0xcac4e730d72b0e4e, 0xf42a29aa66c46f05, 0x3871bdc0f2232e66, 0xe7473615b6d0020d, 0x8695968dc5f99cb2]),
    ("q20", [0x69f0120e9bd02f6c, 0xd84224fc9239f4e0, 0xc9ad95db8548a0a3, 0xdc02dd47d4a87ae6, 0xcb5d12b6f38b8c27, 0xac547bd1a6784f32]),
    ("q21", [0xe42a7a32b723fb78, 0x65be7575a53eb814, 0x254b8b5ec02aca7f, 0xba9a81fb1bee2ed2, 0xb7a03cbb24d13973, 0x8af687484685b814]),
    ("q22", [0xdfb75525edad12b5, 0x33f711ee810188c6, 0x8baa156fad6a410e, 0x5be18fa0a7ba0a65, 0x5be18fa0a7ba0a65, 0xe0145ab6cd8f43c9]),
    ("ds24", [0x6a645dd101f3447c, 0x630f7ad8a975477d, 0xbac197efa1b2c8b8, 0x8d4b298e0dd272fa, 0x3fc4b57bac650e69, 0xbf3f5ef60b515a10]),
    ("ds58", [0x97e31307e94c7fa3, 0x579638c0624b59d1, 0xd1be6c756c7d7402, 0xf1cb5e0f96b9a2f5, 0x592827719eacc44c, 0x1268178a6019db8d]),
    ("ds81", [0x84592acc753600b4, 0x997fbc9863b081f3, 0xa6acb698dc970b14, 0xade948b117eefc94, 0xa43b8020ec31195f, 0xe2a977f5e04cc18c]),
];

#[test]
fn every_plan_shape_is_pinned() {
    let got: Vec<(&str, [u64; 6])> = PINNED
        .iter()
        .map(|&(name, _)| {
            let hashes = pars().map(|par| fnv1a(&format!("{:?}", plans::plan(name, par))));
            (name, hashes)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, hs)| {
            let hs: Vec<String> = hs.iter().map(|h| format!("{h:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", hs.join(", "))
        })
        .collect();
    for ((name, hs), (_, pinned)) in got.iter().zip(&PINNED) {
        for ((h, p), par) in hs.iter().zip(pinned).zip(pars()) {
            assert_eq!(
                h, p,
                "{name} at {par:?} hashes to {h:#018x}, pinned {p:#018x}; new table:\n{table}"
            );
        }
    }
}

#[test]
fn the_pin_covers_every_query() {
    let names: Vec<String> = plans::all_plans(Par::for_scale(1.0))
        .into_iter()
        .map(|p| p.name)
        .collect();
    let pinned: Vec<&str> = PINNED.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, pinned, "the query mix and the pinned table differ");
}
