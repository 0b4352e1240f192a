package main

// defaultSeed is the workload seed a run uses when none is given. The
// digests below were recorded at it.
const defaultSeed = 1

// heldOutSeed is set aside for confirming a performance claim on a seed the
// change was not tuned on: tune with other seeds, then re-run here.
const heldOutSeed = 7177

// goldenDigests are the per-cell result digests (Makespan, Local+Remote
// bytes, CutBytes) of each grid in canonical cell order, and the
// completion hash of the service run, all at defaultSeed. A run at
// defaultSeed counts every cell that differs as failed.
var goldenDigests = map[string][]uint64{
	"figure1": {
		0x7e0f0e8f7e44a079, 0x1473d3ad7750b1ee, 0x648c7d43b979871a, 0xc97c5375a1e7a96d,
		0xd05952ee5ba8c01a, 0xb1a4516efc633cca, 0xf7577946172c22d8, 0x34beb37e411fd560,
		0x70f5bddab55661eb, 0xda527ac351698076, 0xca2332fcd618cbcc, 0x8113334fdea8d467,
		0x8da4ff1607cc8294, 0x3a22f0296699dd79, 0xaec777daa1a3db50, 0xc6c4e44f2515ec24,
		0xf85b488b7e07a8c3, 0x6e554448e96f2459, 0xa0683cb317ce1001, 0x0fcd8c7f9594d1b4,
		0xbb7f1d2b8210cffa, 0x03fa61ce967db979, 0x3c8b869201bb6f66, 0xee593d655aa31a3d,
		0xdb73978224111a91, 0xb3d51e953c3fd64f, 0x63127f8fae8e2481, 0xeddb2fdca37bd531,
		0xd53a1beac5581941, 0x47e6ca1664f15bd9, 0x2fe9556afe1073de, 0xf6b62a34d390ed0d,
	},
	"rgp_window8192": {
		0x7126d6ae701dd803, 0x9b5d9100caab565a, 0xff28c96bc18dcb79, 0x98437aaf4fb36e77,
		0xa95068aa857bda76, 0x9d6fe472267258aa, 0xfbbb120a0b6e5ea7, 0x0a106307bb3b9c79,
		0x5c61654856fa3761, 0xca731924fe72736b, 0x3043e38faf9985a3, 0x7d74588a1b187e99,
		0x7f89d260f6bb3b5d, 0x9be38e0be3aa3411, 0x03ad120c2ea7e7e4, 0xd03f4b0a23e0ae61,
		0xccca8a158b4ef5f1, 0xb30fcc8a7a4b2f05, 0xb90fe0d7ba8b7773, 0x29cb7118f04a9209,
		0x78f4d0b5022f143e, 0xa54fc34836a63f51, 0xd4f30903431cbb70, 0x31ac7e955f408a5c,
	},
	"service": {
		0xecef5d6da2151ab6,
	},
}
