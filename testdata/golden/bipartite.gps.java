// Generated by the Green-Marl → Pregel compiler from procedure "bipartite_matching".
// Target: GPS (master.compute + vertex.compute extended Pregel API).

class Message implements Writable {
    byte type;
    long f0; // raw 64-bit slot (long/double/boolean/vertex-id)
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        switch (type) {
            case 0: out.writeInt((int) f0); break;
            case 1: out.writeInt((int) f0); break;
            case 2: out.writeInt((int) f0); break;
        }
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        switch (type) {
            case 0: f0 = in.readInt(); break;
            case 1: f0 = in.readInt(); break;
            case 2: f0 = in.readInt(); break;
        }
    }
}

class BipartiteMatchingVertexValue implements Writable {
    boolean is_boy;
    int match;
    int suitor;
    int[] in_nbrs; // §4.3 incoming-neighbor list (when used)
    public void write(DataOutput out) throws IOException {
        out.writeBoolean(is_boy);
        out.writeInt(match);
        out.writeInt(suitor);
    }
    public void readFields(DataInput in) throws IOException {
        is_boy = in.readBoolean();
        match = in.readInt();
        suitor = in.readInt();
    }
}

class BipartiteMatchingMaster extends Master {
    int _state = 0;
    long count;
    boolean fin;
    boolean _r2;
    
    public void compute(int superstepNo) {
        while (true) {
            switch (_state) {
                case 0: { // master block
                    count = 0L;
                    fin = false;
                    _state = 1; break;
                }
                case 1: { // vertex-parallel state "state0"
                    getGlobalObjectMap().put("_state", new IntOverwrite(1));
                    _state = 2; return; // run vertex.compute this superstep
                }
                case 2: { // master block
                    _state = (!fin) ? 3 : 16; break;
                }
                case 3: { // vertex-parallel state "state3"
                    getGlobalObjectMap().put("_state", new IntOverwrite(3));
                    _state = 4; return; // run vertex.compute this superstep
                }
                case 4: { // master block
                    _state = 5; break;
                }
                case 5: { // vertex-parallel state "state4_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(5));
                    _state = 6; return; // run vertex.compute this superstep
                }
                case 6: { // master block
                    _r2 = false;
                    _state = 7; break;
                }
                case 7: { // master block
                    _state = 8; break;
                }
                case 8: { // master block
                    if (getGlobalObjectMap().hasUpdates("_r2_|=")) {
                        _r2 = getGlobalObjectMap().get("_r2_|=").getValue();
                    }
                    _state = 9; break;
                }
                case 9: { // master block
                    fin = !_r2;
                    _state = 10; break;
                }
                case 10: { // master block
                    _state = 11; break;
                }
                case 11: { // vertex-parallel state "state9_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(11));
                    _state = 12; return; // run vertex.compute this superstep
                }
                case 12: { // master block
                    _state = 13; break;
                }
                case 13: { // master block
                    if (getGlobalObjectMap().hasUpdates("count_+=")) {
                        count += getGlobalObjectMap().get("count_+=").getValue();
                    }
                    _state = 14; break;
                }
                case 14: { // vertex-parallel state "state12_recv"
                    getGlobalObjectMap().put("_state", new IntOverwrite(14));
                    _state = 15; return; // run vertex.compute this superstep
                }
                case 15: { // master block
                    _state = 2; break;
                }
                case 16: { // master block
                    setResult(count);
                    haltComputation(); return;
                    haltComputation(); return;
                }
            }
        }
    }
}

class BipartiteMatchingVertex extends Vertex<BipartiteMatchingVertexValue, Message> {
    public void compute(Iterable<Message> messages, int superstepNo) {
        int _state = ((IntOverwrite) getGlobalObjectMap().get("_state")).getValue();
        switch (_state) {
            case 1: { // state0
                getValue().match = -1;
                break;
            }
            case 3: { // state3
                getValue().suitor = -1;
                if ((getValue().is_boy && (getValue().match == -1))) {
                    for (int e = 0; e < getNeighborsCount(); e++) {
                        Message m = new Message();
                        m.f0 = getId();
                        sendMessage(getNeighborId(e), m);
                    }
                }
                break;
            }
            case 5: { // state4_recv
                int b = -1;
                for (Message m : messages) {
                    if (m.type == 0) {
                        if ((getValue().match == -1)) {
                            getValue().suitor = (int) m.f0;
                        }
                    }
                }
                if ((!getValue().is_boy && (getValue().suitor != -1))) {
                    getGlobalObjectMap().put("_r2_|=", new Reduce(true));
                }
                if ((!getValue().is_boy && (getValue().suitor != -1))) {
                    b = getValue().suitor;
                    if ((b) != -1) {
                        Message m = new Message();
                        m.f0 = getId();
                        sendMessage(b, m);
                    }
                }
                break;
            }
            case 11: { // state9_recv
                int g = -1;
                for (Message m : messages) {
                    if (m.type == 1) {
                        getValue().suitor = (int) m.f0;
                    }
                }
                if (((getValue().is_boy && (getValue().match == -1)) && (getValue().suitor != -1))) {
                    g = getValue().suitor;
                    getValue().match = g;
                    if ((g) != -1) {
                        Message m = new Message();
                        m.f0 = getId();
                        sendMessage(g, m);
                    }
                    getGlobalObjectMap().put("count_+=", new Reduce(1L));
                }
                break;
            }
            case 14: { // state12_recv
                for (Message m : messages) {
                    if (m.type == 2) {
                        getValue().match = (int) m.f0;
                    }
                }
                break;
            }
        }
    }
}
