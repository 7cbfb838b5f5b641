package kernel

import (
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/obj"
)

// ViewFrames is one view as the external reset tests see it: its address
// space, its image, and the address of every page it maps (the image's
// sections, the stack and the runtime patch area).
type ViewFrames struct {
	Mem   *emu.Memory
	Image *obj.Image
	Pages []uint64
}

// Frames returns every view's mapped pages.
func (p *Process) Frames() []ViewFrames {
	out := make([]ViewFrames, 0, len(p.views))
	for _, v := range p.views {
		seen := make(map[uint64]bool)
		var pages []uint64
		add := func(addr, size uint64) {
			for a := addr &^ (obj.PageSize - 1); a < addr+size; a += obj.PageSize {
				if !seen[a] {
					seen[a] = true
					pages = append(pages, a)
				}
			}
		}
		for _, s := range v.secs {
			add(s.Addr, uint64(len(s.Data)))
		}
		add(obj.StackTop-obj.StackSize, obj.StackSize)
		add(v.patchBase, v.patchCursor-v.patchBase)
		out = append(out, ViewFrames{Mem: v.mem, Image: v.img, Pages: pages})
	}
	return out
}
