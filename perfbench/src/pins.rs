//! Output digests pinned at the commit that defined the benchmark: FNV-1a
//! of each CG point's `RunReport`, `EngineStats` and `NetStats` debug
//! text, of each `simulate` response line, and of each parsed `batch`
//! result. Regenerate with `--print-pins` only when a change is meant to
//! alter simulated results, and say so.

pub const PINS: &[(&str, u64)] = &[
    ("cg/n32", 0xba4fe0b6e1f812ce),
    ("cg/n64", 0xc23872c7dc40f450),
    ("cg/n128", 0xb7582dc8fdb53d52),
    ("serve/batch/BT/n16/coarse-vector/nack", 0xf8cb79fb55fffb0a),
    (
        "serve/batch/BT/n16/coarse-vector/queuing",
        0xdd20ea1906e0508d,
    ),
    ("serve/batch/BT/n16/full-map/nack", 0xf526ca03b8e4011b),
    ("serve/batch/BT/n16/full-map/queuing", 0xef803160cb6d5f92),
    (
        "serve/batch/BT/n16/limited-pointer/nack",
        0x2da99ecf747c7985,
    ),
    (
        "serve/batch/BT/n16/limited-pointer/queuing",
        0x7a7848bf0b4bf839,
    ),
    (
        "serve/batch/BT/n16/pointer-pattern/nack",
        0x22750f511b6a965c,
    ),
    (
        "serve/batch/BT/n16/pointer-pattern/queuing",
        0xa24d7f4582f5d32d,
    ),
    ("serve/batch/BT/n32/coarse-vector/nack", 0x9d873c3d54dbdf7b),
    (
        "serve/batch/BT/n32/coarse-vector/queuing",
        0xd2552c662da60f10,
    ),
    ("serve/batch/BT/n32/full-map/nack", 0xf8110be976d44983),
    ("serve/batch/BT/n32/full-map/queuing", 0x756bfe1f3296f1e4),
    (
        "serve/batch/BT/n32/limited-pointer/nack",
        0x0c77b01e82194c04,
    ),
    (
        "serve/batch/BT/n32/limited-pointer/queuing",
        0x2234c8cc4b2d0e09,
    ),
    (
        "serve/batch/BT/n32/pointer-pattern/nack",
        0xf5b9f7c185572d50,
    ),
    (
        "serve/batch/BT/n32/pointer-pattern/queuing",
        0xa15841bbc5f376b4,
    ),
    ("serve/batch/BT/n64/coarse-vector/nack", 0x41f6b918bc75afce),
    (
        "serve/batch/BT/n64/coarse-vector/queuing",
        0x184a25bb088b106a,
    ),
    ("serve/batch/BT/n64/full-map/nack", 0xe3fba1edd5af83e8),
    ("serve/batch/BT/n64/full-map/queuing", 0x5c94f8405b061bbf),
    (
        "serve/batch/BT/n64/limited-pointer/nack",
        0x69a940867d53e8b3,
    ),
    (
        "serve/batch/BT/n64/limited-pointer/queuing",
        0xa3eb356ec80dc93e,
    ),
    (
        "serve/batch/BT/n64/pointer-pattern/nack",
        0xb90e30027eb5bdf4,
    ),
    (
        "serve/batch/BT/n64/pointer-pattern/queuing",
        0x21f60e0947476cf2,
    ),
    ("serve/batch/FT/n16/coarse-vector/nack", 0xf3e56d17e5db0053),
    (
        "serve/batch/FT/n16/coarse-vector/queuing",
        0xd4b16439540c4464,
    ),
    ("serve/batch/FT/n16/full-map/nack", 0x8739f2b64ce8b811),
    ("serve/batch/FT/n16/full-map/queuing", 0xe75d915dd54fce10),
    (
        "serve/batch/FT/n16/limited-pointer/nack",
        0x5aa20580879d384b,
    ),
    (
        "serve/batch/FT/n16/limited-pointer/queuing",
        0x220e4ceb20ac6357,
    ),
    (
        "serve/batch/FT/n16/pointer-pattern/nack",
        0x0bdac86f87cea0ca,
    ),
    (
        "serve/batch/FT/n16/pointer-pattern/queuing",
        0x5ea264adaa6482d3,
    ),
    ("serve/batch/FT/n32/coarse-vector/nack", 0x52bce53a04f56231),
    (
        "serve/batch/FT/n32/coarse-vector/queuing",
        0x485058c781fa2488,
    ),
    ("serve/batch/FT/n32/full-map/nack", 0x18ac479d5e591097),
    ("serve/batch/FT/n32/full-map/queuing", 0x9d1cf69c6747538a),
    (
        "serve/batch/FT/n32/limited-pointer/nack",
        0x8703f565f70a032a,
    ),
    (
        "serve/batch/FT/n32/limited-pointer/queuing",
        0xaa4537a0f59b5c39,
    ),
    (
        "serve/batch/FT/n32/pointer-pattern/nack",
        0x2c462c79d1875766,
    ),
    (
        "serve/batch/FT/n32/pointer-pattern/queuing",
        0x3b520a2b3b0c7d9a,
    ),
    ("serve/batch/FT/n64/coarse-vector/nack", 0x4834849459ea5cc1),
    (
        "serve/batch/FT/n64/coarse-vector/queuing",
        0x302f84b28c47435d,
    ),
    ("serve/batch/FT/n64/full-map/nack", 0x19a13add3a863b54),
    ("serve/batch/FT/n64/full-map/queuing", 0x54dac94ec76af22b),
    (
        "serve/batch/FT/n64/limited-pointer/nack",
        0x37c5e3312d17394f,
    ),
    (
        "serve/batch/FT/n64/limited-pointer/queuing",
        0xef24d66971652302,
    ),
    (
        "serve/batch/FT/n64/pointer-pattern/nack",
        0x4b414abdc79f5a10,
    ),
    (
        "serve/batch/FT/n64/pointer-pattern/queuing",
        0x49da5514d9aaf126,
    ),
    ("serve/batch/SP/n16/coarse-vector/nack", 0xb9eac16bf9ec1de9),
    (
        "serve/batch/SP/n16/coarse-vector/queuing",
        0x78a84f981410d546,
    ),
    ("serve/batch/SP/n16/full-map/nack", 0xf21182c16f1c4636),
    ("serve/batch/SP/n16/full-map/queuing", 0xa38522355b6cd3bf),
    (
        "serve/batch/SP/n16/limited-pointer/nack",
        0x1d1042f576bdfc9c,
    ),
    (
        "serve/batch/SP/n16/limited-pointer/queuing",
        0x1adcc2178eb5d800,
    ),
    (
        "serve/batch/SP/n16/pointer-pattern/nack",
        0x857e7ca8a623316d,
    ),
    (
        "serve/batch/SP/n16/pointer-pattern/queuing",
        0x1cd94882d21c3364,
    ),
    ("serve/batch/SP/n32/coarse-vector/nack", 0x0a2bf9a34abeccb7),
    (
        "serve/batch/SP/n32/coarse-vector/queuing",
        0x81c26bdae40a3010,
    ),
    ("serve/batch/SP/n32/full-map/nack", 0x9c85f69250db27b7),
    ("serve/batch/SP/n32/full-map/queuing", 0xf155f85235b1aa2c),
    (
        "serve/batch/SP/n32/limited-pointer/nack",
        0x07fa21cf8329cfcc,
    ),
    (
        "serve/batch/SP/n32/limited-pointer/queuing",
        0x80a9016cee83f6f1,
    ),
    (
        "serve/batch/SP/n32/pointer-pattern/nack",
        0xd803cef0528b9cc0,
    ),
    (
        "serve/batch/SP/n32/pointer-pattern/queuing",
        0xd830d627dc6d2edc,
    ),
    ("serve/batch/SP/n64/coarse-vector/nack", 0x579bb52bdff586b6),
    (
        "serve/batch/SP/n64/coarse-vector/queuing",
        0xc89b01d1a7b80a12,
    ),
    ("serve/batch/SP/n64/full-map/nack", 0xdfd5edf5df416db6),
    ("serve/batch/SP/n64/full-map/queuing", 0x66e52cc61199b03f),
    (
        "serve/batch/SP/n64/limited-pointer/nack",
        0xb4d1e6173d581633,
    ),
    (
        "serve/batch/SP/n64/limited-pointer/queuing",
        0x87ec6d29ad8a3c08,
    ),
    (
        "serve/batch/SP/n64/pointer-pattern/nack",
        0x4aa097001c20a5b2,
    ),
    (
        "serve/batch/SP/n64/pointer-pattern/queuing",
        0x59ad2e751eb9501c,
    ),
    ("serve/sim/BT/n16/coarse-vector/nack", 0xc576a2f20082ad30),
    ("serve/sim/BT/n16/coarse-vector/queuing", 0x03ea748c7a85d254),
    ("serve/sim/BT/n16/full-map/nack", 0x5182d0e478b6ef90),
    ("serve/sim/BT/n16/full-map/queuing", 0xed846113ac777ebe),
    ("serve/sim/BT/n16/limited-pointer/nack", 0x36f24cbae4a62108),
    (
        "serve/sim/BT/n16/limited-pointer/queuing",
        0x86a69133815434cd,
    ),
    ("serve/sim/BT/n16/pointer-pattern/nack", 0xe00a5b8b24e079e7),
    (
        "serve/sim/BT/n16/pointer-pattern/queuing",
        0xec0afb73d41c410d,
    ),
    ("serve/sim/BT/n32/coarse-vector/nack", 0xd1d230c89db91bfb),
    ("serve/sim/BT/n32/coarse-vector/queuing", 0xfe0c66063c759425),
    ("serve/sim/BT/n32/full-map/nack", 0xf7079d285cb26ca9),
    ("serve/sim/BT/n32/full-map/queuing", 0x92bd0f65ddd6926f),
    ("serve/sim/BT/n32/limited-pointer/nack", 0xe0f1ccffa343305c),
    (
        "serve/sim/BT/n32/limited-pointer/queuing",
        0x5317733e3d01d318,
    ),
    ("serve/sim/BT/n32/pointer-pattern/nack", 0x2c690fc1f90a3de4),
    (
        "serve/sim/BT/n32/pointer-pattern/queuing",
        0xe84044550dabac30,
    ),
    ("serve/sim/BT/n64/coarse-vector/nack", 0x70304af4d9180965),
    ("serve/sim/BT/n64/coarse-vector/queuing", 0x5347556463b6f8a8),
    ("serve/sim/BT/n64/full-map/nack", 0x773fa9bb5d45c961),
    ("serve/sim/BT/n64/full-map/queuing", 0x25967d0dcde5dc1c),
    ("serve/sim/BT/n64/limited-pointer/nack", 0x04aecc64d82254b6),
    (
        "serve/sim/BT/n64/limited-pointer/queuing",
        0x8e3f87c052deb100,
    ),
    ("serve/sim/BT/n64/pointer-pattern/nack", 0xa1df2c4eb6d4db06),
    (
        "serve/sim/BT/n64/pointer-pattern/queuing",
        0x6aaf07a3985c4739,
    ),
    ("serve/sim/FT/n16/coarse-vector/nack", 0xde06a4692f40b538),
    ("serve/sim/FT/n16/coarse-vector/queuing", 0x388791fd5cc632f8),
    ("serve/sim/FT/n16/full-map/nack", 0x910df8c321cb3540),
    ("serve/sim/FT/n16/full-map/queuing", 0xa1dcacb42497d6d2),
    ("serve/sim/FT/n16/limited-pointer/nack", 0x38ae8f333a4dc5b4),
    (
        "serve/sim/FT/n16/limited-pointer/queuing",
        0x69b14303d7ecffbd,
    ),
    ("serve/sim/FT/n16/pointer-pattern/nack", 0x6a3860a9db3222b3),
    (
        "serve/sim/FT/n16/pointer-pattern/queuing",
        0xf2e1ef53e709e18a,
    ),
    ("serve/sim/FT/n32/coarse-vector/nack", 0xab77c85afb1248e2),
    ("serve/sim/FT/n32/coarse-vector/queuing", 0xf57fbe57130213e4),
    ("serve/sim/FT/n32/full-map/nack", 0xca9f315c88d12cbd),
    ("serve/sim/FT/n32/full-map/queuing", 0x7c0b71269bce036e),
    ("serve/sim/FT/n32/limited-pointer/nack", 0x24715a69154f26e0),
    (
        "serve/sim/FT/n32/limited-pointer/queuing",
        0xe6815be82766cfa4,
    ),
    ("serve/sim/FT/n32/pointer-pattern/nack", 0x1c5a920bbf45944d),
    (
        "serve/sim/FT/n32/pointer-pattern/queuing",
        0xd593632ae920286c,
    ),
    ("serve/sim/FT/n64/coarse-vector/nack", 0xb0a2891c3f51ffeb),
    ("serve/sim/FT/n64/coarse-vector/queuing", 0xe1d9bb1aeea57f46),
    ("serve/sim/FT/n64/full-map/nack", 0x0959f3b501ee7e89),
    ("serve/sim/FT/n64/full-map/queuing", 0x08821468211ded55),
    ("serve/sim/FT/n64/limited-pointer/nack", 0x156a13304b2f3381),
    (
        "serve/sim/FT/n64/limited-pointer/queuing",
        0x4139dba9538dd540,
    ),
    ("serve/sim/FT/n64/pointer-pattern/nack", 0x3e145ddda5a577c3),
    (
        "serve/sim/FT/n64/pointer-pattern/queuing",
        0x8a1c9bf584156188,
    ),
    ("serve/sim/SP/n16/coarse-vector/nack", 0x8a8825369ae491b9),
    ("serve/sim/SP/n16/coarse-vector/queuing", 0x6331dd9ce0bb76e5),
    ("serve/sim/SP/n16/full-map/nack", 0x58a65b16c353205c),
    ("serve/sim/SP/n16/full-map/queuing", 0x63ef4bd8f1c1cd86),
    ("serve/sim/SP/n16/limited-pointer/nack", 0x7135904ff4870335),
    (
        "serve/sim/SP/n16/limited-pointer/queuing",
        0x758e143f80590aaf,
    ),
    ("serve/sim/SP/n16/pointer-pattern/nack", 0xb9820723cad05a2d),
    (
        "serve/sim/SP/n16/pointer-pattern/queuing",
        0x3835f09eeda9ce4f,
    ),
    ("serve/sim/SP/n32/coarse-vector/nack", 0x1193e1239f858681),
    ("serve/sim/SP/n32/coarse-vector/queuing", 0xcf29342fbf45e49a),
    ("serve/sim/SP/n32/full-map/nack", 0xacd2b3217e8d1acc),
    ("serve/sim/SP/n32/full-map/queuing", 0x11b77b6b8e486f9a),
    ("serve/sim/SP/n32/limited-pointer/nack", 0x686a892eec762b39),
    (
        "serve/sim/SP/n32/limited-pointer/queuing",
        0xfcba18d97da0334d,
    ),
    ("serve/sim/SP/n32/pointer-pattern/nack", 0x2c57373945717561),
    (
        "serve/sim/SP/n32/pointer-pattern/queuing",
        0x3456efd938cb6d64,
    ),
    ("serve/sim/SP/n64/coarse-vector/nack", 0x3be477b1c28d9f82),
    ("serve/sim/SP/n64/coarse-vector/queuing", 0x233b8bb54b7bf1fb),
    ("serve/sim/SP/n64/full-map/nack", 0x289dc5bb6b75f0f4),
    ("serve/sim/SP/n64/full-map/queuing", 0xbd63b817bc1d7e4c),
    ("serve/sim/SP/n64/limited-pointer/nack", 0x739c18163986c96b),
    (
        "serve/sim/SP/n64/limited-pointer/queuing",
        0x48012b29a79066b1,
    ),
    ("serve/sim/SP/n64/pointer-pattern/nack", 0xcb5dfa3d2c9fbec6),
    (
        "serve/sim/SP/n64/pointer-pattern/queuing",
        0x9008a64b919e0b49,
    ),
];
