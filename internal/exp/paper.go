package exp

// Published results from the paper, used for side-by-side comparison in the
// rendered tables. Absolute runtimes (Tp/Tt/Ts) are hardware-bound and
// reported but not compared.

// PaperTable1 holds the paper's Table 1 (test cost).
var PaperTable1 = map[string]Table1Row{
	"s9234":        {Circuit: "s9234", NS: 211, NG: 5597, NB: 2, NP: 80, NPT: 15, TA: 37, TV: 2.47, TPA: 700, TPV: 8.75, RA: 94.71, RV: 71.77, TP: 6.58, TT: 0.09, TS: 0.00},
	"s13207":       {Circuit: "s13207", NS: 638, NG: 7951, NB: 5, NP: 485, NPT: 19, TA: 39, TV: 2.05, TPA: 4001, TPV: 8.25, RA: 99.03, RV: 75.15, TP: 16.75, TT: 0.06, TS: 0.00},
	"s15850":       {Circuit: "s15850", NS: 534, NG: 9772, NB: 5, NP: 397, NPT: 22, TA: 76, TV: 3.45, TPA: 3684, TPV: 9.28, RA: 97.94, RV: 62.82, TP: 50.51, TT: 0.17, TS: 0.01},
	"s38584":       {Circuit: "s38584", NS: 1426, NG: 19253, NB: 7, NP: 370, NPT: 21, TA: 62, TV: 2.95, TPA: 3093, TPV: 8.36, RA: 98.00, RV: 64.71, TP: 90.45, TT: 0.15, TS: 0.01},
	"mem_ctrl":     {Circuit: "mem_ctrl", NS: 1065, NG: 10327, NB: 10, NP: 3016, NPT: 62, TA: 195, TV: 3.15, TPA: 27415, TPV: 9.09, RA: 99.29, RV: 65.35, TP: 622.63, TT: 0.36, TS: 0.02},
	"usb_funct":    {Circuit: "usb_funct", NS: 1746, NG: 14381, NB: 17, NP: 482, NPT: 32, TA: 114, TV: 3.56, TPA: 4569, TPV: 9.48, RA: 97.51, RV: 62.45, TP: 118.48, TT: 0.17, TS: 0.02},
	"ac97_ctrl":    {Circuit: "ac97_ctrl", NS: 2199, NG: 9208, NB: 21, NP: 780, NPT: 78, TA: 288, TV: 3.69, TPA: 7340, TPV: 9.41, RA: 96.08, RV: 60.79, TP: 81.63, TT: 0.30, TS: 0.01},
	"pci_bridge32": {Circuit: "pci_bridge32", NS: 3321, NG: 12494, NB: 32, NP: 3472, NPT: 84, TA: 298, TV: 3.55, TPA: 29061, TPV: 8.37, RA: 98.97, RV: 57.59, TP: 749.31, TT: 1.19, TS: 1.59},
}

// PaperTable2 holds the paper's Table 2 (yield percentages).
var PaperTable2 = map[string]Table2Row{
	"s9234":        {Circuit: "s9234", T1YI: 77.11, T1YT: 75.80, T1YR: 1.31, T2YI: 95.94, T2YT: 95.61, T2YR: 0.33},
	"s13207":       {Circuit: "s13207", T1YI: 72.37, T1YT: 72.09, T1YR: 0.28, T2YI: 96.42, T2YT: 96.03, T2YR: 0.39},
	"s15850":       {Circuit: "s15850", T1YI: 69.34, T1YT: 69.09, T1YR: 0.25, T2YI: 94.33, T2YT: 94.10, T2YR: 0.23},
	"s38584":       {Circuit: "s38584", T1YI: 85.97, T1YT: 85.01, T1YR: 0.96, T2YI: 98.48, T2YT: 97.10, T2YR: 1.38},
	"mem_ctrl":     {Circuit: "mem_ctrl", T1YI: 67.11, T1YT: 64.98, T1YR: 2.13, T2YI: 94.58, T2YT: 92.40, T2YR: 2.18},
	"usb_funct":    {Circuit: "usb_funct", T1YI: 71.77, T1YT: 69.40, T1YR: 2.37, T2YI: 96.57, T2YT: 94.60, T2YR: 1.97},
	"ac97_ctrl":    {Circuit: "ac97_ctrl", T1YI: 75.05, T1YT: 73.40, T1YR: 1.65, T2YI: 94.92, T2YT: 93.09, T2YR: 1.83},
	"pci_bridge32": {Circuit: "pci_bridge32", T1YI: 73.66, T1YT: 71.50, T1YR: 2.16, T2YI: 96.76, T2YT: 95.71, T2YR: 1.05},
}

// PaperBaseYields are the unbuffered yields the paper calibrates T1/T2 to.
const (
	PaperBaseYieldT1 = 50.0
	PaperBaseYieldT2 = 84.13
)
